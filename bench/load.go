package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadStats is what one load loop observed, in milliseconds of host time.
type loadStats struct {
	BySpec    [][]float64 // latency of every verified-OK request, per mix entry
	Gaps      []float64   // closed loop: how long after it was free to go each request was sent
	Attempted int
	Failed    int
	// Rate is verified-OK requests per second: each client's count over its
	// own elapsed time, summed, so the request in flight when the window
	// closes is counted together with the time it took.
	Rate     float64
	FirstErr error
}

func (s *loadStats) fail(err error) {
	s.Failed++
	if s.FirstErr == nil {
		s.FirstErr = err
	}
}

// latencies returns every verified-OK request's latency.
func (s *loadStats) latencies() []float64 {
	var all []float64
	for _, lat := range s.BySpec {
		all = append(all, lat...)
	}
	return all
}

// merge folds a client's observations into s.
func (s *loadStats) merge(o *loadStats) {
	for i := range o.BySpec {
		s.BySpec[i] = append(s.BySpec[i], o.BySpec[i]...)
	}
	s.Gaps = append(s.Gaps, o.Gaps...)
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Rate += o.Rate
	if s.FirstErr == nil {
		s.FirstErr = o.FirstErr
	}
}

// closedLoop drives do from `clients` goroutines for the window: each sends
// its next request only after the previous one completed, and no sooner than
// `think` after it sent that one (0: at once).  Requests are taken from the
// shared seeded stream in order.  do performs request i of the stream and
// returns an error when it failed or its output was wrong.
func closedLoop(clients int, window, think time.Duration, stream []int, mixLen int, do func(client, specIdx int) error) *loadStats {
	total := &loadStats{BySpec: make([][]float64, mixLen)}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &loadStats{BySpec: make([][]float64, mixLen)}
			ok := 0
			var prevStart, prevEnd time.Time
			for time.Now().Before(deadline) {
				si := stream[int(next.Add(1)-1)%len(stream)]
				free := prevEnd
				if paced := prevStart.Add(think); think > 0 && !prevStart.IsZero() && paced.After(free) {
					free = paced
					time.Sleep(time.Until(paced))
				}
				t0 := time.Now()
				if !free.IsZero() {
					st.Gaps = append(st.Gaps, ms(t0.Sub(free)))
				}
				err := do(c, si)
				prevStart, prevEnd = t0, time.Now()
				st.Attempted++
				if err != nil {
					st.fail(err)
					continue
				}
				ok++
				st.BySpec[si] = append(st.BySpec[si], ms(prevEnd.Sub(t0)))
			}
			if el := time.Since(start).Seconds(); el > 0 {
				st.Rate = float64(ok) / el
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// openLoopStats is what the open-loop sender observed.
type openLoopStats struct {
	Lat       []float64 // due time to acknowledgement, ms
	Late      []float64 // due time to actual send, ms
	Attempted int
	Failed    int
	Retries   int
	FirstErr  error
}

// openLoop sends n operations on a fixed schedule — operation i is due at
// start + i×interval — over one connection, so a stalled acknowledgement
// delays the sends behind it.  Latency is timed from the due time, which
// charges that delay to the operations that suffered it, and Late records
// how far behind schedule each send started.  send returns how many times it
// had to retry.  The loop stops early when stop is closed.
func openLoop(start time.Time, interval time.Duration, n int, stop <-chan struct{}, send func(i int) (retries int, err error)) *openLoopStats {
	st := &openLoopStats{}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return st
			}
		}
		select {
		case <-stop:
			return st
		default:
		}
		sent := time.Now()
		retries, err := send(i)
		st.Attempted++
		st.Retries += retries
		st.Late = append(st.Late, ms(sent.Sub(due)))
		if err != nil {
			st.Failed++
			if st.FirstErr == nil {
				st.FirstErr = err
			}
			continue
		}
		st.Lat = append(st.Lat, ms(time.Since(due)))
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resultMarker precedes the result in a /v1/query envelope; the result is
// the envelope's last field, so everything after the marker up to the
// closing "}\n" is the result body.
var resultMarker = []byte(`,"result":`)

// envelopeResult cuts the result bytes out of a response envelope without
// unmarshalling it, which keeps the generator cheap on multi-megabyte
// bodies.  The marker cannot occur earlier: the fields before it hold only
// hex digits, task names and booleans.
func envelopeResult(body []byte) ([]byte, error) {
	head := body
	if len(head) > 512 {
		head = head[:512]
	}
	i := bytes.Index(head, resultMarker)
	if i < 0 || len(body) < i+len(resultMarker)+2 || !bytes.HasSuffix(body, []byte("}\n")) {
		return nil, fmt.Errorf("malformed envelope: %.80q", body)
	}
	return body[i+len(resultMarker) : len(body)-2], nil
}

// envelopeEpoch reads the corpus epoch out of the envelope's generation
// field ("<buildtag>.<recovery>.<epoch>") without unmarshalling.
func envelopeEpoch(body []byte) (uint64, error) {
	const key = `"generation":"`
	head := body
	if len(head) > 128 {
		head = head[:128]
	}
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no generation in envelope: %.80q", body)
	}
	gen := head[i+len(key):]
	j := bytes.IndexByte(gen, '"')
	if j < 0 {
		return 0, fmt.Errorf("unterminated generation: %.80q", body)
	}
	gen = gen[:j]
	k := bytes.LastIndexByte(gen, '.')
	if k < 0 {
		return 0, fmt.Errorf("generation without epoch: %q", gen)
	}
	var epoch uint64
	for _, c := range gen[k+1:] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad epoch in generation %q", gen)
		}
		epoch = epoch*10 + uint64(c-'0')
	}
	return epoch, nil
}

// getBody performs a GET and reads the whole body into buf (reset first).
// A non-200 status is an error.
func getBody(client *http.Client, url string, buf *bytes.Buffer) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %.120s", url, resp.Status, buf.Bytes())
	}
	return nil
}

// newClient returns an HTTP client keeping up to conns idle connections to
// the daemon, so closed-loop clients reuse theirs.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
