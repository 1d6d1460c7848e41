package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root: the
// directory holding the ntadoc module and the daemon's source.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ntadocd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no ntadoc repository above the working directory (need go.mod and cmd/ntadocd)")
		}
		dir = parent
	}
}

// buildDaemon compiles the real ntadocd binary into dir.  Build time is not
// part of any metric.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ntadocd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ntadocd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building ntadocd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonSet is the set of running children.
type daemonSet struct {
	mu      sync.Mutex
	running map[*daemon]struct{} // guarded by mu
}

func (s *daemonSet) add(d *daemon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running == nil {
		s.running = map[*daemon]struct{}{}
	}
	s.running[d] = struct{}{}
}

func (s *daemonSet) remove(d *daemon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, d)
}

// killAll ends every running child without waiting for a drain; the signal
// handler's way out.
func (s *daemonSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d := range s.running {
		d.cmd.Process.Kill()
		d.cmd.Process.Wait()
	}
}

// daemon is one running ntadocd child.
type daemon struct {
	set  *daemonSet
	cmd  *exec.Cmd
	base string // http://host:port
	out  bytes.Buffer
	done chan error // receives cmd.Wait() once the output reader has drained
	// exited is set once done has been received: the child is reaped.
	exited bool
}

// startDaemon launches the binary on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(set *daemonSet, bin, archive string, flags ...string) (*daemon, error) {
	args := append([]string{"-addr", "localhost:0"}, flags...)
	args = append(args, archive)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting ntadocd: %w", err)
	}
	d := &daemon{set: set, cmd: cmd, done: make(chan error, 1)}
	set.add(d)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.WriteString(line + "\n")
			if addr, ok := strings.CutPrefix(line, "ntadocd: listening on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.done:
		d.reaped()
		return nil, fmt.Errorf("bench: ntadocd exited before listening: %v\n%s", err, d.out.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("bench: ntadocd never reported its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("bench: ntadocd never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit; a clean
// drain exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		d.reaped()
		if err != nil {
			return fmt.Errorf("bench: ntadocd exit: %v\n%s", err, d.out.String())
		}
		return nil
	case <-time.After(40 * time.Second):
		d.kill()
		return fmt.Errorf("bench: ntadocd did not exit after SIGTERM")
	}
}

// kill ends the daemon unconditionally and waits for it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.cmd.Process.Kill()
	select {
	case <-d.done:
		d.reaped()
	case <-time.After(10 * time.Second):
	}
}

func (d *daemon) reaped() {
	d.exited = true
	d.set.remove(d)
}

// peakRSSMiB reads the high-water resident set of process pid.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for pid %d", pid)
}

// scrape reads /metrics into a map keyed by the exposition line's name and
// labels, e.g. `ntadoc_requests_total{outcome="ok"}`.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
