package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

// lockedBuffer lets the test read stdout while run() is still writing.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var urlRe = regexp.MustCompile(`listening on (http://[^ \n]+)`)

func TestServeAndDriveSession(t *testing.T) {
	var out, errOut lockedBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-budget", "500"}, &out, &errOut, stop) }()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := urlRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not report its URL; stdout=%q stderr=%q", out.String(), errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c := serve.NewClient(base)
	info, err := c.Create(serve.CreateRequest{Variables: 3, Algorithm: "qhorn1"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	u, err := boolean.NewUniverse(3)
	if err != nil {
		t.Fatal(err)
	}
	target, err := query.Parse(u, "Ax1 -> x2")
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Drive(info.ID, serve.AnswererFor(u, oracle.Target(target)), serve.DriveOptions{})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("session ended %q (error %q), want done", final.State, final.Error)
	}
	want, _ := learn.Run(u, oracle.Target(target), engine.WithAlgorithm(engine.Qhorn1), engine.WithBatch())
	if final.Learned != want.String() {
		t.Fatalf("learned %q over HTTP, direct learn.Run gives %q", final.Learned, want)
	}

	stop <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run returned %d; stderr=%q", code, errOut.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit after stop signal")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("stdout missing shutdown notice: %q", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut lockedBuffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad flag returned %d, want 2", code)
	}
	// -shards is not a flag: the session table is a single map.
	var shardsErr lockedBuffer
	if code := run([]string{"-shards", "4"}, &out, &shardsErr, nil); code != 2 {
		t.Fatalf("-shards returned %d, want 2", code)
	}
	if !strings.Contains(shardsErr.String(), "flag provided but not defined: -shards") {
		t.Errorf("-shards stderr %q, want an undefined-flag error", shardsErr.String())
	}
}

func TestBadAddr(t *testing.T) {
	var out, errOut lockedBuffer
	if code := run([]string{"-addr", "127.0.0.1:notaport"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("bad addr returned %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "qhornd:") {
		t.Errorf("stderr missing error: %q", errOut.String())
	}
}
