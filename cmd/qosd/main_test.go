package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer: realMain writes from the
// serving goroutine while the test polls for the listen line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// bootDaemon runs realMain with args on a free port until ctx is done
// and returns the daemon's base URL and the channel that receives its
// exit code.
func bootDaemon(t *testing.T, ctx context.Context, args ...string) (base string, done <-chan int, stdout, stderr *syncBuffer) {
	t.Helper()
	stdout, stderr = new(syncBuffer), new(syncBuffer)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], exit, stdout, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQosdMainServesAndDrains boots the real binary entry point on a
// free port, drives one admit→decide→release round trip over HTTP, and
// shuts it down through the signal context — the full daemon lifecycle.
func TestQosdMainServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	base, done, stdout, stderr := bootDaemon(t, ctx,
		"-model", "../../examples/models/mpeg_body.qos",
		"-epoch", "50ms")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	// Round trip against the named model ("mpeg_body" from the path).
	resp, err = http.Post(base+"/v1/admit", "application/json",
		strings.NewReader(`{"model":"mpeg_body"}`))
	if err != nil {
		t.Fatal(err)
	}
	var admitBody bytes.Buffer
	admitBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: HTTP %d: %s", resp.StatusCode, admitBody.String())
	}
	idMatch := regexp.MustCompile(`"id":(\d+)`).FindStringSubmatch(admitBody.String())
	if idMatch == nil {
		t.Fatalf("admit response without stream id: %s", admitBody.String())
	}

	resp, err = http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(fmt.Sprintf(`{"items":[{"stream":%s,"load":0.5}]}`, idMatch[1])))
	if err != nil {
		t.Fatal(err)
	}
	var decideBody bytes.Buffer
	decideBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(decideBody.String(), `"code":200`) {
		t.Fatalf("decide: HTTP %d: %s", resp.StatusCode, decideBody.String())
	}
	if !strings.Contains(decideBody.String(), `"misses":0`) {
		t.Fatalf("decide missed deadlines: %s", decideBody.String())
	}

	resp, err = http.Post(base+"/v1/release", "application/json",
		strings.NewReader(fmt.Sprintf(`{"stream":%s}`, idMatch[1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: HTTP %d", resp.StatusCode)
	}

	// Signal-context shutdown drains and exits 0.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on context cancellation")
	}
	if out := stdout.String(); !strings.Contains(out, "drained") {
		t.Fatalf("shutdown did not drain: %s", out)
	}
}

func TestQosdMainUsageErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := realMain(context.Background(), nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no -model: exit %d", code)
	}
	if code := realMain(context.Background(), []string{"-model", "x.qos", "-policy", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bogus policy: exit %d", code)
	}
	if code := realMain(context.Background(), []string{"-model", "does-not-exist.qos"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing model: exit %d", code)
	}
}

// TestQosdMainCutsStalledClients: clients that send decide headers
// with a Content-Length and then stall are cut off once readTimeout
// has passed, and the daemon's goroutines return to their count before
// them; meanwhile a well-behaved client's admit and decide succeed. An
// admit that queues for the whole -admit-timeout still gets its 429
// written: the write deadline leaves room for it.
func TestQosdMainCutsStalledClients(t *testing.T) {
	saved := [2]time.Duration{readTimeout, writeTimeout}
	readTimeout, writeTimeout = 300*time.Millisecond, 100*time.Millisecond
	t.Cleanup(func() { readTimeout, writeTimeout = saved[0], saved[1] })
	const margin = 2 * time.Second

	ctx, cancel := context.WithCancel(context.Background())
	base, done, _, stderr := bootDaemon(t, ctx,
		"-model", "../../examples/models/mpeg_body.qos",
		"-admit-timeout", "400ms")
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	// settle waits until at most want goroutines run, or fails after
	// the read deadline plus the margin.
	settle := func(what string, want int) {
		t.Helper()
		deadline := time.Now().Add(readTimeout + margin)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()

	const stalled = 4
	addr := strings.TrimPrefix(base, "http://")
	conns := make([]net.Conn, stalled)
	start := time.Now()
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, "POST /v1/decide HTTP/1.1\r\nHost: qosd\r\n"+
			"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"items\":["); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}

	// A well-behaved client is served while the stalled ones wait.
	code, body := post("/v1/admit", `{"model":"mpeg_body"}`)
	id := regexp.MustCompile(`"id":(\d+)`).FindStringSubmatch(body)
	if code != http.StatusOK || id == nil {
		t.Fatalf("admit: HTTP %d: %s", code, body)
	}
	code, body = post("/v1/decide", fmt.Sprintf(`{"items":[{"stream":%s,"load":0.5}]}`, id[1]))
	if code != http.StatusOK || !strings.Contains(body, `"code":200`) || !strings.Contains(body, `"misses":0`) {
		t.Fatalf("decide beside stalled clients: HTTP %d: %s", code, body)
	}

	// Each stalled client is answered and closed by the read deadline.
	for i, c := range conns {
		c.SetReadDeadline(start.Add(readTimeout + margin))
		reply, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("stalled client %d not cut off within %v: %v (read %q)", i, readTimeout+margin, err, reply)
		}
		if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400")) {
			t.Fatalf("stalled client %d: reply %q", i, reply)
		}
	}
	if elapsed := time.Since(start); elapsed > readTimeout+margin {
		t.Fatalf("stalled clients cut off after %v, read deadline %v", elapsed, readTimeout)
	}
	client.CloseIdleConnections()
	settle("after the stalled clients", baseline)

	// An admit the budget cannot carry queues for the whole admit
	// timeout, longer than writeTimeout alone, and is still answered.
	code, body = post("/v1/admit", `{"model":"mpeg_body","streams":1024}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity admit: HTTP %d: %s", code, body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on context cancellation")
	}
}

// TestQosdMainCutsDribblingClients: clients that send decide headers
// and then dribble the body one byte every 50 ms never stall long
// enough for a per-read timeout, but the whole-request read deadline
// still cuts each one off within readTimeout plus a margin, with a 400,
// and the daemon's goroutines return to their count before them.
func TestQosdMainCutsDribblingClients(t *testing.T) {
	saved := readTimeout
	readTimeout = 300 * time.Millisecond
	t.Cleanup(func() { readTimeout = saved })
	const margin = 2 * time.Second

	ctx, cancel := context.WithCancel(context.Background())
	base, done, _, stderr := bootDaemon(t, ctx, "-model", "../../examples/models/mpeg_body.qos")
	baseline := runtime.NumGoroutine()

	const dribblers = 4
	addr := strings.TrimPrefix(base, "http://")
	var wg sync.WaitGroup
	conns := make([]net.Conn, dribblers)
	start := time.Now()
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, "POST /v1/decide HTTP/1.1\r\nHost: qosd\r\n"+
			"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		// The body, one byte every 50 ms, until the daemon closes the
		// connection or the test does.
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(`{"items":[{"stream":1,"load":0.5}` + strings.Repeat(" ", 4096) + `]}`)
			for _, b := range body {
				if _, err := c.Write([]byte{b}); err != nil {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}

	for i, c := range conns {
		c.SetReadDeadline(start.Add(readTimeout + margin))
		reply, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("dribbling client %d not cut off within %v: %v (read %q)", i, readTimeout+margin, err, reply)
		}
		if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400")) {
			t.Fatalf("dribbling client %d: reply %q", i, reply)
		}
		c.Close()
	}
	if elapsed := time.Since(start); elapsed > readTimeout+margin {
		t.Fatalf("dribbling clients cut off after %v, read deadline %v", elapsed, readTimeout)
	}
	wg.Wait()
	deadline := time.Now().Add(margin)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("after the dribbling clients: %d goroutines, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on context cancellation")
	}
}
