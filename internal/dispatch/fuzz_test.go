package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// FuzzReadResults feeds arbitrary bytes to the dispatcher's result-stream
// reader, the part of a worker's response no validation precedes. On any
// input it must not panic; it returns nil only after a done line, having
// handed on exactly the result lines before it; and it rejects a line longer
// than maxResultLineBytes.
//
// The fuzzer does not grow inputs to 16 MB, so the oversized-line property
// is also checked on every seed padded past the limit with blanks (the done
// seed so padded is valid JSON: only the limit rejects it). Doing that per
// fuzzed input would cost about 33 MB of scanner buffer and 6 ms each, and
// starve the other two properties of executions.
func FuzzReadResults(f *testing.F) {
	seeds := []string{
		"",
		`{"done":true}`,
		`{"index":0,"spec_key":"ab","rows":[{"cores":2}]}` + "\n" + `{"done":true,"completed":1}` + "\n",
		`{"index":1,"error":"boom","retryable":true}` + "\n",
		"\n \r\n" + `{"index":2}` + "\r\n" + `{"done":true,"failed":1}`,
		`{"index":0}` + "\nnot json\n" + `{"done":true}`,
		`{"api_version":"v1","batch_id":"0123abcd","cells":3}`, // a v1 worker's ack
		`{"done":true}` + "\ntrailing garbage",
		`{"index":3,"rows":null,"done":false}`,
	}
	pad := bytes.Repeat([]byte(" "), maxResultLineBytes+1)
	for _, seed := range seeds {
		f.Add([]byte(seed))
		line := strings.ReplaceAll(seed, "\n", " ")
		long := io.MultiReader(strings.NewReader(line), bytes.NewReader(pad), strings.NewReader("\n{\"done\":true}\n"))
		if err := readResults(long, func(CellResult) {}); err == nil {
			f.Fatalf("accepted a line of more than %d bytes starting %q", maxResultLineBytes, line)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []CellResult
		err := readResults(bytes.NewReader(data), func(res CellResult) { got = append(got, res) })
		for _, res := range got {
			if res.Done {
				t.Fatalf("done line handed on as a cell result: %+v", res)
			}
		}
		if err == nil {
			n, longest, ok := linesBeforeDone(data)
			switch {
			case !ok:
				t.Fatalf("returned nil on a stream without a done line: %q", data)
			case n != len(got):
				t.Fatalf("handed on %d results, the stream holds %d lines before its done line", len(got), n)
			case longest > maxResultLineBytes:
				t.Fatalf("accepted a line of %d bytes (limit %d)", longest, maxResultLineBytes)
			}
		}
	})
}

// linesBeforeDone counts the non-blank lines before data's first done line,
// measures the longest line up to and including it, and reports whether
// there is one.
func linesBeforeDone(data []byte) (n, longest int, ok bool) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		longest = max(longest, len(line))
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var res CellResult
		if json.Unmarshal(line, &res) == nil && res.Done {
			return n, longest, true
		}
		n++
	}
	return 0, 0, false
}
