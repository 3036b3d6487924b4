package scheduler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fork executes tasks as child processes, the Unix "fork" scheduler
// interface of GRAM (paper §2). The zero value is ready to use.
type Fork struct {
	// MaxOutput bounds captured stdout/stderr bytes each; 0 means the
	// default of 1 MiB.
	MaxOutput int
}

// Name implements Backend.
func (*Fork) Name() string { return "fork" }

// forkHandle extends the basic handle with suspend/resume, delivered as
// SIGSTOP/SIGCONT to the child's process group so shell pipelines stop as
// a whole.
type forkHandle struct {
	*resultHandle
	mu  sync.Mutex
	pid int // process-group leader; 0 when not running
}

var _ Suspender = (*forkHandle)(nil)

func (h *forkHandle) signal(sig syscall.Signal) error {
	h.mu.Lock()
	pid := h.pid
	h.mu.Unlock()
	if pid == 0 {
		return errors.New("scheduler: fork: process not running")
	}
	if err := syscall.Kill(-pid, sig); err != nil {
		return fmt.Errorf("scheduler: fork: signal: %w", err)
	}
	return nil
}

// Suspend stops the child with SIGSTOP.
func (h *forkHandle) Suspend() error { return h.signal(syscall.SIGSTOP) }

// Resume continues the child with SIGCONT.
func (h *forkHandle) Resume() error { return h.signal(syscall.SIGCONT) }

// Submit implements Backend by starting the process before it returns:
// once a caller holds the handle, the pid is published and Suspend and
// Resume reach the process. A failure to start is reported through the
// handle's Wait, like any other failure to execute.
func (f *Fork) Submit(ctx context.Context, t Task) (Handle, error) {
	if t.Executable == "" {
		return nil, errors.New("scheduler: fork: empty executable")
	}
	runCtx, cancel := context.WithCancel(ctx)
	h := &forkHandle{resultHandle: newResultHandle(cancel)}
	maxOut := f.MaxOutput
	if maxOut <= 0 {
		maxOut = 1 << 20
	}
	start := time.Now()
	cmd := exec.CommandContext(runCtx, t.Executable, t.Args...)
	cmd.Dir = t.Dir
	env := t.Env
	if t.Checkpoint != "" {
		// Forked processes receive their restart checkpoint through
		// the environment.
		env = make(map[string]string, len(t.Env)+1)
		for k, v := range t.Env {
			env[k] = v
		}
		env["INFOGRAM_CHECKPOINT"] = t.Checkpoint
	}
	if len(env) > 0 {
		cmd.Env = flattenEnv(env)
	}
	if t.Stdin != "" {
		cmd.Stdin = strings.NewReader(t.Stdin)
	}
	stdout := &limitedBuffer{max: maxOut}
	stderr := &limitedBuffer{max: maxOut}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	// Each job leads its own process group so suspend/cancel reach
	// the whole tree, not just the immediate child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error {
		return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}

	finish := func(err error) {
		defer cancel()
		res := Result{
			Stdout:     stdout.String(),
			Stderr:     stderr.String(),
			StartedAt:  start,
			FinishedAt: time.Now(),
		}
		switch {
		case err == nil:
			h.finish(res, nil)
		case runCtx.Err() != nil:
			h.finish(res, fmt.Errorf("scheduler: fork: cancelled: %w", runCtx.Err()))
		default:
			var exitErr *exec.ExitError
			if errors.As(err, &exitErr) {
				res.ExitCode = exitErr.ExitCode()
				h.finish(res, nil)
			} else {
				h.finish(res, fmt.Errorf("scheduler: fork: %w", err))
			}
		}
	}
	if err := cmd.Start(); err != nil {
		finish(err)
		return h, nil
	}
	h.pid = cmd.Process.Pid
	go func() {
		err := cmd.Wait()
		h.mu.Lock()
		h.pid = 0
		h.mu.Unlock()
		finish(err)
	}()
	return h, nil
}

// flattenEnv converts an env map to sorted KEY=VALUE form.
func flattenEnv(env map[string]string) []string {
	out := make([]string, 0, len(env))
	for k, v := range env {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

// limitedBuffer captures at most max bytes and discards the rest, keeping
// job managers safe from chatty jobs.
type limitedBuffer struct {
	buf       bytes.Buffer
	max       int
	truncated bool
}

// Write implements io.Writer.
func (lb *limitedBuffer) Write(p []byte) (int, error) {
	room := lb.max - lb.buf.Len()
	if room > 0 {
		if len(p) > room {
			lb.buf.Write(p[:room])
			lb.truncated = true
		} else {
			lb.buf.Write(p)
		}
	} else if len(p) > 0 {
		lb.truncated = true
	}
	return len(p), nil
}

// String returns the captured output, with a marker when truncated.
func (lb *limitedBuffer) String() string {
	if lb.truncated {
		return lb.buf.String() + "\n[output truncated]"
	}
	return lb.buf.String()
}
