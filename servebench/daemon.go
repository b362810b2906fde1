package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running routed process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	hash  string
	setup time.Duration
	done  chan struct{} // closed once the process has exited and been reaped
}

// startDaemon execs routed on loopback with the WAL on (snapshot in dir)
// and every other flag at its default, and returns once /healthz first
// answers 200. setup is exec → that first 200.
func startDaemon(ctx context.Context, routed, topo, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(routed, "-topo", topo, "-snapshot", filepath.Join(dir, "s.snap"), "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting routed: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 2) // the hash line and the serving line
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "routed: sampled") || strings.HasPrefix(line, "routed: serving on ") {
				select {
				case lines <- line:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	for d.url == "" {
		select {
		case line := <-lines:
			if i := strings.Index(line, "(hash "); i >= 0 {
				d.hash = strings.TrimSuffix(line[i+len("(hash "):], ")")
			}
			if u, ok := strings.CutPrefix(line, "routed: serving on "); ok {
				d.url = u
			}
		case <-d.done:
			return nil, fmt.Errorf("routed exited during start-up")
		case <-deadline.C:
			d.kill()
			return nil, fmt.Errorf("routed did not start within 120s")
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				client.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("routed exited before /healthz answered")
		case <-deadline.C:
			d.kill()
			return nil, fmt.Errorf("/healthz did not answer 200 within 120s")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM (it writes its final snapshot) and
// waits for it to exit, killing it after 30s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("routed did not drain within 30s")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("routed exited with code %d", code)
	}
	return nil
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the daemon's utime+stime so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
