package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/pgakvd from the tree at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pgakvd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pgakvd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/pgakvd: %w", err)
	}
	return bin, nil
}

// server is one running pgakvd child.
type server struct {
	cmd  *exec.Cmd
	base string
	// setup is the time from exec to the first 200 on /healthz.
	setup time.Duration
	done  chan struct{} // closed once the process has exited
	log   *tailLog
}

// live tracks the running children so a signal to the benchmark can stop
// them before it exits.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

// stopAll stops every running child and waits for each to end.
func stopAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// tailLog keeps the last lines a child printed, for error messages.
type tailLog struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailLog) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailLog) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with args on a free loopback port and returns
// once /healthz answers 200. Readiness is taken from the server's own
// "listening on" line, then confirmed by /healthz polled every 100µs, so
// setup is measured to well under a millisecond.
func startServer(bin string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: &tailLog{}}
	cmd.Stderr = logWriter{s.log}

	listening := make(chan struct{})
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pgakvd: %w", err)
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		once := sync.Once{}
		for sc.Scan() {
			line := sc.Text()
			s.log.add(line)
			if strings.HasPrefix(line, "listening on ") {
				once.Do(func() { close(listening) })
			}
		}
	}()
	go func() {
		<-scanned // Wait must not run before the pipe is drained
		_ = cmd.Wait()
		close(s.done)
	}()

	deadline := time.NewTimer(150 * time.Second)
	defer deadline.Stop()
	select {
	case <-listening:
	case <-s.done:
		s.forget()
		return nil, fmt.Errorf("pgakvd exited during boot:\n%s", s.log)
	case <-deadline.C:
		s.stop()
		return nil, fmt.Errorf("pgakvd did not start listening:\n%s", s.log)
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.forget()
			return nil, fmt.Errorf("pgakvd exited during boot:\n%s", s.log)
		case <-deadline.C:
			s.stop()
			return nil, fmt.Errorf("pgakvd never answered /healthz:\n%s", s.log)
		case <-time.After(100 * time.Microsecond):
		}
	}
}

type logWriter struct{ t *tailLog }

func (w logWriter) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		w.t.add(line)
	}
	return len(p), nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) forget() {
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// stop asks the server to drain, kills it if it does not exit in time,
// and waits until it has ended.
func (s *server) stop() {
	defer s.forget()
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// exited reports an unexpected exit of the server.
func (s *server) exited() error {
	select {
	case <-s.done:
		return errors.New("pgakvd exited:\n" + s.log.String())
	default:
		return nil
	}
}

// boot boots the server n times and keeps the last one running; the
// others are stopped after booting. It returns that server and every
// boot's set-up time. fresh, when set, is called before each boot to
// supply per-boot arguments such as an empty data directory.
func boot(ctx context.Context, bin string, args []string, n int, fresh func() ([]string, error)) (*server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		a := args
		if fresh != nil {
			extra, err := fresh()
			if err != nil {
				return nil, nil, err
			}
			a = append(append([]string(nil), args...), extra...)
		}
		s, err := startServer(bin, a)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, s.setup.Seconds())
		if i >= n-1 {
			return s, times, nil
		}
		s.stop()
	}
}
