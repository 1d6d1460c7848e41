package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

// buildDaemon compiles the real ntadocd binary into dir.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ntadocd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building ntadocd: %v\n%s", err, out)
	}
	return bin
}

// loadTestdata compresses the repo's testdata corpus into an archive file
// and returns the path plus the documents for reference execution.
func loadTestdata(t *testing.T, dir string) (string, []ntadoc.Document) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	var docs []ntadoc.Document
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("reading %s: %v", p, err)
		}
		docs = append(docs, ntadoc.Document{Name: filepath.Base(p), Text: string(data)})
	}
	a, err := ntadoc.CompressSharded(docs, 2)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	path := filepath.Join(dir, "corpus.tdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := a.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return path, docs
}

// daemon is one running ntadocd process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://addr
	out  *bytes.Buffer // full stdout+stderr, filled by the reader goroutine
	done chan error    // receives cmd.Wait()
}

// startDaemon launches the binary over archive with one follower per shard.
func startDaemon(t *testing.T, bin, archive string, env ...string) *daemon {
	t.Helper()
	return startDaemonArgs(t, bin, []string{"-replicas", "1", archive}, env...)
}

// startDaemonArgs launches the binary with args and waits for it to report
// its listen address and pass a health check.
func startDaemonArgs(t *testing.T, bin string, args []string, env ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting ntadocd: %v", err)
	}
	d := &daemon{cmd: cmd, out: &bytes.Buffer{}, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.WriteString(line + "\n")
			if addr, ok := strings.CutPrefix(line, "ntadocd: listening on "); ok {
				addrc <- addr
			}
		}
		d.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
		}
	})
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never reported its address; output:\n%s", d.out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy; output:\n%s", d.out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDaemonEndToEnd drives the real binary: every op served over HTTP must
// be bit-identical to direct library execution, and SIGTERM must drain
// in-flight requests before exiting 0.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	archive, docs := loadTestdata(t, dir)

	// Reference: direct library execution over the same archive bytes.
	f, err := os.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ntadoc.ReadArchive(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	names := a.DocumentNames()
	if len(names) != len(docs) {
		t.Fatalf("archive holds %d documents, want %d", len(names), len(docs))
	}

	d := startDaemon(t, bin, archive)

	batches := [][]string{
		{"wordcount"}, {"sort"}, {"termvector"}, {"invertedindex"},
		{"seqcount"}, {"rankedindex"},
		{"rankedindex", "wordcount", "sort", "termvector", "invertedindex", "seqcount"},
	}
	for _, tasks := range batches {
		spec, err := ntadoc.ParseBatchSpec(tasks, 0)
		if err != nil {
			t.Fatalf("ParseBatchSpec(%v): %v", tasks, err)
		}
		direct, err := eng.RunSpec(spec)
		if err != nil {
			t.Fatalf("RunSpec(%v): %v", tasks, err)
		}
		want, err := server.EncodeResult(direct, names)
		if err != nil {
			t.Fatalf("EncodeResult: %v", err)
		}

		url := d.base + "/v1/query?task=" + strings.Join(tasks, ",")
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
		}
		var env server.Response
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		if env.Signature != spec.Signature() {
			t.Errorf("%v: signature %q, want %q", tasks, env.Signature, spec.Signature())
		}
		if !bytes.Equal(env.Result, want) {
			t.Errorf("%v: daemon result differs from direct execution\n got %.200s\nwant %.200s",
				tasks, env.Result, want)
		}
	}

	// Clean shutdown with nothing in flight.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, d.out)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; output:\n%s", d.out)
	}
	if !strings.Contains(d.out.String(), "drained, bye") {
		t.Errorf("daemon did not report a drained shutdown:\n%s", d.out)
	}
}

// TestDaemonGracefulDrain sends SIGTERM while a request is held in flight
// (via the NTADOCD_TEST_DELAY hook) and checks the request still completes
// with 200 and the process exits 0.
func TestDaemonGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	archive, _ := loadTestdata(t, dir)
	d := startDaemon(t, bin, archive, "NTADOCD_TEST_DELAY=750ms")

	type result struct {
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(d.base + "/v1/query?task=wordcount")
		if err != nil {
			resc <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		resc <- result{resp.StatusCode, nil}
	}()
	time.Sleep(250 * time.Millisecond) // request is inside the handler delay
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed across SIGTERM: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", r.code)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exited non-zero: %v\n%s", err, d.out)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after drain; output:\n%s", d.out)
	}
	if !strings.Contains(d.out.String(), "drained, bye") {
		t.Errorf("missing drained-shutdown report:\n%s", d.out)
	}
}

// ingestGauge reads one ntadoc_ingest{stat=...} gauge off /metrics.
func ingestGauge(t *testing.T, d *daemon, stat string) int {
	t.Helper()
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, rest, ok := strings.Cut(string(body), fmt.Sprintf("ntadoc_ingest{stat=%q} ", stat))
	if !ok {
		t.Fatalf("/metrics has no ntadoc_ingest{stat=%q}", stat)
	}
	line, _, _ := strings.Cut(rest, "\n")
	n, err := strconv.Atoi(line)
	if err != nil {
		t.Fatalf("ntadoc_ingest{stat=%q} = %q: %v", stat, line, err)
	}
	return n
}

// TestDaemonAppendStream appends through the real binary, beside a reader,
// for long enough that the background compactor replaces every shard's
// serving tail more than once.  What the daemon then serves must equal a
// from-scratch unsharded rebuild of everything appended, and what it keeps
// mapped to serve it must not have grown with the compactions: at most its
// own engine, one tail and one delta per shard.
func TestDaemonAppendStream(t *testing.T) {
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	archive, docs := loadTestdata(t, dir)
	const shards = 2 // loadTestdata's
	d := startDaemonArgs(t, bin, []string{"-ingest-cap", "4194304", archive})

	stop := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerErr <- nil
				return
			default:
			}
			resp, err := http.Get(d.base + "/v1/query?task=wordcount,termvector")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("query beside the append stream: status %d", resp.StatusCode)
				}
			}
			if err != nil {
				readerErr <- err
				return
			}
		}
	}()

	// Batches of 8 until each shard's delta has crossed the default policy's
	// 64 documents, and been folded, twice over.
	for b := 0; ingestGauge(t, d, "compactions") < 2*shards; b++ {
		if b == 400 {
			t.Fatalf("%d compactions after %d appended documents", ingestGauge(t, d, "compactions"), 8*b)
		}
		var req server.AppendRequest
		for k := 0; k < 8; k++ {
			n := b*8 + k
			req.Documents = append(req.Documents, server.AppendDocument{
				Name: fmt.Sprintf("stream%03d", n),
				Text: fmt.Sprintf("stream document %d of batch %d says the quick brown fox met word%d again and again", n, b, n%11),
			})
			docs = append(docs, ntadoc.Document{Name: req.Documents[k].Name, Text: req.Documents[k].Text})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			resp, err := http.Post(d.base+"/v1/append", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("append batch %d: %v", b, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			// 503: a compaction's merge is building; the daemon says retry.
			if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
				t.Fatalf("append batch %d: status %d: %s", b, resp.StatusCode, msg)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stop)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if got := ingestGauge(t, d, "serving_engines"); got > 3*shards {
		t.Errorf("%d serving engines with requests drained after %d compactions, want at most %d",
			got, ingestGauge(t, d, "compactions"), 3*shards)
	}

	ref, err := ntadoc.Compress(docs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	eng, err := ntadoc.NewEngine(ref, ntadoc.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	tasks := []string{"wordcount", "sort", "termvector", "invertedindex", "seqcount", "rankedindex"}
	spec, err := ntadoc.ParseBatchSpec(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.RunSpec(spec)
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	want, err := server.EncodeResult(direct, ref.DocumentNames())
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	resp, err := http.Get(d.base + "/v1/query?task=" + strings.Join(tasks, ","))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env server.Response
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	if !bytes.Equal(env.Result, want) {
		t.Errorf("daemon result after the append stream differs from a from-scratch rebuild\n got %.200s\nwant %.200s",
			env.Result, want)
	}
}
