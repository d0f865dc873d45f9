package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// References are the expected outputs of a workload for one seed, computed on
// the plain local serial path outside any timing. They are cached per seed
// and build (cacheKey) under the state directory and computed in a child
// process, so the reference's memory never counts towards the measured
// process's peak RSS.

func referencePath(cfg config, wl workload) string {
	return filepath.Join(stateDir, "ref", fmt.Sprintf("%s-%s-seed%d.out", wl.name, cacheKey(cfg), cfg.seed))
}

// writeReference computes the reference in this process and stores it.
func writeReference(ctx context.Context, cfg config, wl workload) error {
	if wl.reference == nil {
		return fmt.Errorf("workload %s has no reference", wl.name)
	}
	out, err := wl.reference(ctx, cfg.seed)
	if err != nil {
		return fmt.Errorf("reference %s seed %d: %w", wl.name, cfg.seed, err)
	}
	path := referencePath(cfg, wl)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadReference returns the cached reference for the run's seed, computing
// it in a child process first when it is missing.
func (b *bench) loadReference(ctx context.Context) ([]byte, error) {
	path := referencePath(b.cfg, b.wl)
	if out, err := os.ReadFile(path); err == nil {
		return out, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-ref", "-workload", b.wl.name, "-seed", fmt.Sprint(b.cfg.seed))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("computing reference: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return os.ReadFile(path)
}

// cacheKey fingerprints a workload's input sizes and the build under test, so
// cached references and recorded counts are recomputed whenever the sizes or
// the code change. .bench_build/ outlives a checkout of another commit; a
// model change must not be compared against the previous commit's outputs.
func cacheKey(cfg config) string {
	var sizes string
	switch cfg.workload {
	case "fig3-cold":
		sizes = fmt.Sprintf("%+v", fig3Scale(0))
	case "sweep-fleet":
		sizes = fmt.Sprintf("%+v", sweepOptions(0, sweepWarmup))
	case "run-manycore":
		sizes = fmt.Sprint(manycoreCores, manycoreScenario, manycoreInstructions, manycoreInterval, manycorePRB)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sizes+"\n"+cfg.build)))[:12]
}

// buildKey is a digest of the two binaries under test: this program, which
// links the repository's packages and computes the references, and the
// gdpsim the servers run. go build is reproducible, so the same sources
// give the same key.
func buildKey(gdpsim string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{self, gdpsim} {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
