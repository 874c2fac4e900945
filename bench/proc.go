package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process under test.
type child struct {
	cmd   *exec.Cmd
	out   *watchedOutput
	start time.Time
	done  chan struct{} // closed when Wait has returned
	err   error         // Wait's result, valid after done
}

// watchedOutput collects a child's stdout and stderr and signals the
// first line matching a pattern — how the harness learns the loopback
// port a program picked.
type watchedOutput struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	pattern *regexp.Regexp
	match   chan string // receives the first submatch once
	sent    bool
}

func (w *watchedOutput) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.pattern != nil && !w.sent {
		if m := w.pattern.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.match <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *watchedOutput) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// procs tracks every child a run started so that none outlives it.
type procs struct {
	mu   sync.Mutex
	live []*child
}

// start launches a program. pattern, when non-nil, is looked for in its
// output (see child.await).
func (p *procs) start(ctx context.Context, pattern *regexp.Regexp, path string, args ...string) (*child, error) {
	return p.startEnv(ctx, nil, pattern, path, args...)
}

// startEnv is start with env added to the child's environment.
func (p *procs) startEnv(ctx context.Context, env []string, pattern *regexp.Regexp, path string, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	out := &watchedOutput{pattern: pattern, match: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = out, out
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	// SIGTERM on cancellation lets mtmlf-serve drain; WaitDelay bounds it.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	c := &child{cmd: cmd, out: out, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	p.mu.Lock()
	p.live = append(p.live, c)
	p.mu.Unlock()
	return c, nil
}

// await blocks until the child printed its pattern and returns the
// submatch, or fails when the child exits or 60 s pass first.
func (c *child) await() (string, error) {
	select {
	case s := <-c.out.match:
		return s, nil
	case <-c.done:
		return "", fmt.Errorf("%s exited before it was ready: %v\n%s", c.cmd.Path, c.err, c.out)
	case <-time.After(60 * time.Second):
		return "", fmt.Errorf("%s not ready after 60 s\n%s", c.cmd.Path, c.out)
	}
}

// wait blocks until the child has exited and reports a non-zero exit
// with the child's output.
func (c *child) wait() error {
	<-c.done
	if c.err != nil {
		return fmt.Errorf("%s: %w\n%s", c.cmd.Path, c.err, c.out)
	}
	return nil
}

// stop asks the child to exit (SIGTERM, then SIGKILL after 5 s) and
// waits until it has.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// maxRSSMB is the exited child's peak resident set (rusage Maxrss, KB).
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (p *procs) killAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// peakRSSMB reads a live process's VmHWM from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
