package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds start-up and recovery; a server that is not
// ready by then fails the run.
const readyTimeout = 120 * time.Second

// daemon is one running foresightd process and the client that talks
// to it over at most two loopback connections.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	exited chan struct{}
}

// startDaemon launches bin with args on a free loopback port and waits
// until /readyz answers 200. It returns the time from process start to
// that answer.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr, "-quiet")...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	if err := d.waitReady(start); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// waitReady polls /readyz every 2 ms until it answers 200.
func (d *daemon) waitReady(start time.Time) error {
	poll := &http.Client{Timeout: time.Second}
	for time.Since(start) < readyTimeout {
		select {
		case <-d.exited:
			return fmt.Errorf("foresightd exited during start-up (%v); see its log", d.cmd.ProcessState)
		default:
		}
		resp, err := poll.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				poll.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("foresightd not ready after %v", readyTimeout)
}

// peakRSSMB reads the process's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// statusCounts scrapes /metrics for the number of 503 and 504 answers
// to /api/ requests (/readyz answers 503 by design until recovery ends).
func (d *daemon) statusCounts() (c503, c504 int, err error) {
	resp, err := d.http.Get(d.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "foresight_http_requests_total{") || !strings.Contains(line, `route="/api/`) {
			continue
		}
		f := strings.Fields(line)
		v, perr := strconv.ParseFloat(f[len(f)-1], 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.Contains(line, `code="503"`):
			c503 += int(v)
		case strings.Contains(line, `code="504"`):
			c504 += int(v)
		}
	}
	return c503, c504, sc.Err()
}

// stop asks the process to shut down and waits for it, killing it if
// it has not exited within ten seconds.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// call is one timed HTTP exchange.
type call struct {
	status int
	body   []byte
	start  time.Time
	end    time.Time
	err    error
}

func (c call) ms() float64 { return float64(c.end.Sub(c.start)) / float64(time.Millisecond) }

// ok reports a transport success with a 2xx status.
func (c call) ok() bool { return c.err == nil && c.status >= 200 && c.status < 300 }

// do sends one request and reads the whole body; the time runs from
// the first byte sent to the last byte received.
func (d *daemon) do(method, path, contentType string, body []byte) call {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, rd)
	if err != nil {
		return call{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c := call{start: time.Now()}
	resp, err := d.http.Do(req)
	if err != nil {
		c.end, c.err = time.Now(), err
		return c
	}
	c.body, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.end = time.Now()
	c.status = resp.StatusCode
	return c
}
