package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sinkProc is the sink child process and its command pipe.
type sinkProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

// startSink launches this binary in the sink role; its first engine is
// started by listen.
func startSink(tol float64, validate, traced bool) (*sinkProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--role", "sink", "--sink-tolerance", strconv.FormatFloat(tol, 'g', -1, 64)}
	if validate {
		args = append(args, "--sink-validate")
	}
	if traced {
		args = append(args, "--sink-trace")
	}
	cmd := exec.Command(self, args...)
	if pinned() {
		// The sink gets its own CPU; run.sh pins the generator to CPU 0.
		cmd = exec.Command("taskset", append([]string{"-c", "1", self}, args...)...)
	}
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sink: %w", err)
	}
	return &sinkProc{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<16)}, nil
}

// listen has the sink close its current engine and start a fresh one, and
// returns how long the engine took to start listening.
func (p *sinkProc) listen() (time.Duration, error) {
	var r struct {
		Addr     string
		ListenNs int64 `json:"listen_ns"`
	}
	if err := p.call(&r, "listen"); err != nil {
		return 0, err
	}
	if r.Addr == "" {
		return 0, fmt.Errorf("sink reported no address")
	}
	p.addr = r.Addr
	return time.Duration(r.ListenNs), nil
}

func (p *sinkProc) read(v any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call sends one command and decodes the sink's one-line reply into v.
func (p *sinkProc) call(v any, format string, args ...any) error {
	if _, err := fmt.Fprintf(p.in, format+"\n", args...); err != nil {
		return fmt.Errorf("sink command: %w", err)
	}
	if err := p.read(v); err != nil {
		return fmt.Errorf("sink reply: %w", err)
	}
	return nil
}

// quit asks the sink to drain and exit, killing it if it does not within
// the deadline; it always waits for the process to end.
func (p *sinkProc) quit(spanPath string) error {
	fmt.Fprintf(p.in, "quit %s\n", spanPath)
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("sink did not exit; killed")
	}
}

func (p *sinkProc) kill() {
	p.in.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// pinned reports whether the generator and the sink run on separate CPUs:
// the host has at least two and taskset is available.
func pinned() bool {
	_, err := exec.LookPath("taskset")
	return err == nil && runtime.NumCPU() >= 1 && hostCPUs() >= 2
}

// hostCPUs counts the CPUs online, independent of this process's affinity.
func hostCPUs() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/online")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, part := range strings.Split(strings.TrimSpace(string(b)), ",") {
		lo, hi, found := strings.Cut(part, "-")
		a, _ := strconv.Atoi(lo)
		z := a
		if found {
			z, _ = strconv.Atoi(hi)
		}
		n += z - a + 1
	}
	return n
}
