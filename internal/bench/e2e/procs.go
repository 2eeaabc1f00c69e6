package e2e

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one lsserved or lsrouter child process.
type server struct {
	name string
	base string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error
}

// startServer launches bin with args, its output going to logPath. The
// child is killed if the harness dies first.
func startServer(name, bin, addr string, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, base: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitReady polls GET path until ok accepts the response, the process
// exits, or the timeout passes.
func (s *server) waitReady(ctx context.Context, path string, ok func(status int, body []byte) bool, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited while booting: %v\n%s", s.name, s.err, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get(s.base + path); err == nil {
			var body bytes.Buffer
			_, rerr := body.ReadFrom(resp.Body)
			resp.Body.Close()
			if rerr == nil && ok(resp.StatusCode, body.Bytes()) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v\n%s", s.name, timeout, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func status200(status int, _ []byte) bool { return status == http.StatusOK }

// stop asks the process to drain (SIGTERM) and waits for it, killing it
// after the grace period.
func (s *server) stop(grace time.Duration) error {
	select {
	case <-s.done:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
		return nil
	case <-time.After(grace):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("%s did not stop within %v; killed", s.name, grace)
	}
}

// logTail returns the end of the child's log for error messages.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// freeAddr reserves an ephemeral loopback port for a child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it are fixed.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: too few fields", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// FindRepoRoot walks up from dir to the root of the lucidscript module.
func FindRepoRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(b) == "lucidscript" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the lucidscript repository (no go.mod declaring module lucidscript)")
		}
		dir = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// BuildServers compiles lsserved and lsrouter from the repository at root
// into dir.
func BuildServers(ctx context.Context, root, dir string) error {
	for _, name := range []string{"lsserved", "lsrouter"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", name, err, out)
		}
	}
	return nil
}
