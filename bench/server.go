package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// rig is what every run shares: where the checkout is, where scratch files
// go, the server binary, and the child processes still alive.
type rig struct {
	root      string // checkout root (holds BENCHMARK.json)
	scratch   string // per-process scratch directory under root/.bench_build
	serverBin string

	mu    sync.Mutex
	procs map[*serverProc]struct{}
}

// findRoot returns the checkout root whether the benchmark was started from
// it (bench/run.sh) or from bench/ (go run -C bench .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the checkout root or from bench/")
}

// newRig creates the scratch directory and builds youtopia-server from the
// tree. All files a run writes live under root/.bench_build, inside the
// checkout; TMPDIR points there too, because the storage layer puts its
// compaction scratch in the default temporary directory.
func newRig() (*rig, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	scratch := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	os.Setenv("TMPDIR", scratch) //nolint:errcheck // cannot fail for a non-empty key
	r := &rig{root: root, scratch: scratch, procs: make(map[*serverProc]struct{})}
	r.serverBin = filepath.Join(build, "bin", "youtopia-server")
	cmd := exec.Command("go", "build", "-o", r.serverBin, "repro/cmd/youtopia-server")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		r.close()
		return nil, fmt.Errorf("go build youtopia-server: %v\n%s", err, out)
	}
	return r, nil
}

// close kills every server still running and removes the scratch directory.
// It runs on every exit path, signals included.
func (r *rig) close() {
	r.mu.Lock()
	procs := make([]*serverProc, 0, len(r.procs))
	for p := range r.procs {
		procs = append(procs, p)
	}
	r.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(r.scratch) //nolint:errcheck // best effort on the way out
}

// serverProc is one youtopia-server child process.
type serverProc struct {
	rig  *rig
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once Wait returned
}

// startServer execs youtopia-server on dir and returns once it printed its
// listen address, which is after recovery finished.
func (r *rig) startServer(dir string, seed bool, extra []string) (*serverProc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-wal", filepath.Join(dir, "wal"), "-walsync"}
	if seed {
		args = append(args, "-seed")
	}
	args = append(args, extra...)
	cmd := exec.Command(r.serverBin, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{rig: r, cmd: cmd, done: make(chan struct{})}
	r.mu.Lock()
	r.procs[p] = struct{}{}
	r.mu.Unlock()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		cmd.Wait() //nolint:errcheck // a killed server exits non-zero by design
		close(p.done)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		p.forget()
		return nil, fmt.Errorf("youtopia-server exited before listening")
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("youtopia-server did not listen within 60s")
	}
}

func (p *serverProc) forget() {
	p.rig.mu.Lock()
	delete(p.rig.procs, p)
	p.rig.mu.Unlock()
}

// kill is kill -9: no shutdown code runs, and it returns once the process
// has been reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-p.done
	p.forget()
}

// awaitReady dials until the server answers its health request as ready —
// what `youtopia-admin -health` checks.
func awaitReady(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := server.Dial(addr)
		if err == nil {
			st, rerr := c.AdminRepl(context.Background())
			c.Close()
			if rerr == nil && st.Ready {
				return nil
			}
			err = rerr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready within %s: %v", addr, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	const clockTick = 100 // USER_HZ is 100 on every Linux platform Go supports
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
