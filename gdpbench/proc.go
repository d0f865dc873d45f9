package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `gdpsim serve` process under test.
type server struct {
	cmd     *exec.Cmd
	url     string
	logs    *serveLog
	waitErr chan error // receives cmd.Wait's result once the process exits
}

// serveLog receives a server's stderr: it reports the address from the
// startup "serving" line and discards the access log after it.
type serveLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
	tail  []byte // last bytes of output, for error messages
}

var servingAddr = regexp.MustCompile(`msg=serving addr=(\S+)`)

func (l *serveLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tail = append(l.tail, p...)
	if len(l.tail) > 2048 {
		l.tail = l.tail[len(l.tail)-2048:]
	}
	if l.found {
		return len(p), nil
	}
	l.buf.Write(p)
	if m := servingAddr.FindSubmatch(l.buf.Bytes()); m != nil {
		l.found = true
		l.addr <- string(m[1])
		l.buf.Reset()
	}
	return len(p), nil
}

func (l *serveLog) lastOutput() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(string(l.tail))
}

// httpClient talks to the servers. Two idle connections per host match the
// load generator's connection limit.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 2,
	MaxConnsPerHost:     2,
	DisableCompression:  true,
}}

// spawnServer starts `gdpsim <global...> serve -addr 127.0.0.1:0 -pprof` and
// returns once its /healthz answers 200.
func spawnServer(ctx context.Context, gdpsim string, global ...string) (*server, error) {
	args := append(append([]string(nil), global...), "serve", "-addr", "127.0.0.1:0", "-pprof")
	cmd := exec.Command(gdpsim, args...)
	logs := &serveLog{addr: make(chan string, 1)}
	cmd.Stdout = io.Discard
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn gdpsim serve: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	s := &server{cmd: cmd, logs: logs, waitErr: exited}
	fail := func(err error) (*server, error) {
		_ = cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("gdpsim serve: %w (output: %s)", err, logs.lastOutput())
	}
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case addr := <-logs.addr:
		s.url = "http://" + addr
	case err := <-exited:
		exited <- err
		return fail(fmt.Errorf("exited before serving: %v", err))
	case <-timeout.C:
		return fail(errors.New("no serving line within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := httpClient.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-timeout.C:
			return fail(errors.New("/healthz not 200 within 30s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop terminates the server gracefully (SIGTERM, then SIGKILL after 10s)
// and waits for the process to exit.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waitErr:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waitErr
	}
}

// get fetches path from the server and returns the body of a 200 response.
func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *server) metrics(ctx context.Context) (promSnap, error) {
	body, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

// totalAlloc reads the server's cumulative heap allocation from the heap
// profile's runtime.MemStats trailer.
func (s *server) totalAlloc(ctx context.Context) (float64, error) {
	body, err := s.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("heap profile has no TotalAlloc")
}

// profile records the server's CPU profile for the given whole seconds.
func (s *server) profile(ctx context.Context, seconds int) ([]byte, error) {
	return s.get(ctx, fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds))
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// rssSampler tracks this process's peak resident set size while an operation
// runs, by sampling /proc/self/statm every few milliseconds. Unlike VmHWM it
// covers one operation, not the process's whole life.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	page := float64(os.Getpagesize())
	go func() {
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(data)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil && pages*page > peak {
						peak = pages * page
					}
				}
			}
			select {
			case <-s.stop:
				s.done <- peak / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the peak RSS in MB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	return <-s.done
}
