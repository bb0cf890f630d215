package arbd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// testTick is fast enough to keep the suite quick but coarse enough to
// be stable under the race detector's slowdown.
const testTick = 200 * time.Microsecond

// newTestDaemon builds a daemon plus an httptest server on its
// handler, cleaned up in reverse order (server first, so no handler is
// in flight when the shards stop).
func newTestDaemon(t *testing.T, rcs ...ResourceConfig) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := New(Config{Resources: rcs})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, srv
}

// res returns a ResourceConfig with test-speed defaults.
func res(name string, agents int, protocol string) ResourceConfig {
	return ResourceConfig{Name: name, Agents: agents, Protocol: protocol, Tick: testTick}
}

// httpAcquire performs one acquire over HTTP, returning status and the
// lease (valid only on 200).
func httpAcquire(t *testing.T, base, resource string, agent int, params string) (int, Lease) {
	t.Helper()
	u := fmt.Sprintf("%s/v1/acquire?resource=%s&agent=%d%s", base, resource, agent, params)
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer resp.Body.Close()
	var lease Lease
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			t.Fatalf("decoding lease: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, lease
}

// httpRelease performs one release over HTTP.
func httpRelease(t *testing.T, base, resource, token string) int {
	t.Helper()
	u := fmt.Sprintf("%s/v1/release?resource=%s&token=%s", base, resource, token)
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatalf("release: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 4, "RR1"))

	code, lease := httpAcquire(t, srv.URL, "bus", 3, "")
	if code != http.StatusOK {
		t.Fatalf("acquire status %d, want 200", code)
	}
	if lease.Resource != "bus" || lease.Agent != 3 || lease.Token == "" {
		t.Fatalf("bad lease %+v", lease)
	}
	if code := httpRelease(t, srv.URL, "bus", lease.Token); code != http.StatusOK {
		t.Fatalf("release status %d, want 200", code)
	}
	// A released token is dead.
	if code := httpRelease(t, srv.URL, "bus", lease.Token); code != http.StatusNotFound {
		t.Fatalf("double release status %d, want 404", code)
	}
}

// TestLeaseTokenNotGuessable pins that a token cannot be derived
// from what a client knows: releasing with the name-agent-sequence
// string a predictable token would have used is refused, and the
// real holder keeps the resource.
func TestLeaseTokenNotGuessable(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 4, "RR1"))

	code, lease := httpAcquire(t, srv.URL, "bus", 3, "")
	if code != http.StatusOK {
		t.Fatalf("acquire status %d, want 200", code)
	}
	if code := httpRelease(t, srv.URL, "bus", "bus-3-1"); code != http.StatusNotFound {
		t.Fatalf("guessed-token release status %d, want 404", code)
	}
	// Still held: another agent's acquire times out behind it.
	if code, _ := httpAcquire(t, srv.URL, "bus", 1, "&timeout=30ms"); code != http.StatusRequestTimeout {
		t.Fatalf("acquire behind the holder status %d, want 408", code)
	}
	if code := httpRelease(t, srv.URL, "bus", lease.Token); code != http.StatusOK {
		t.Fatalf("holder release status %d, want 200", code)
	}
}

// TestLeaseTokensDifferAcrossDaemons pins that a restarted daemon
// does not reissue an earlier run's tokens, so a stale holder cannot
// release the current holder's lease.
func TestLeaseTokensDifferAcrossDaemons(t *testing.T) {
	var tokens [2]string
	for i := range tokens {
		d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
		if err != nil {
			t.Fatal(err)
		}
		lease, serr := d.Acquire(context.Background(), "bus", 3, time.Second, 0)
		d.Close()
		if serr != nil {
			t.Fatalf("daemon %d acquire: %v", i, serr)
		}
		tokens[i] = lease.Token
	}
	if tokens[0] == tokens[1] {
		t.Fatalf("two daemons issued the same first token %q", tokens[0])
	}
}

// TestCoreProtocolsServe pins that a resource can run any core
// protocol, not only the ones the paper's tables feature: two
// contending agents are both granted, in-process.
func TestCoreProtocolsServe(t *testing.T) {
	for _, proto := range []string{"RR2", "AAP1", "Hybrid"} {
		t.Run(proto, func(t *testing.T) {
			d, _ := newTestDaemon(t, res("bus", 4, proto))
			ctx := context.Background()
			first, serr := d.Acquire(ctx, "bus", 2, time.Second, 0)
			if serr != nil {
				t.Fatalf("agent 2: %v", serr)
			}
			done := make(chan *statusError, 1)
			go func() {
				lease, serr := d.Acquire(ctx, "bus", 4, 5*time.Second, 0)
				if serr == nil {
					serr = d.Release("bus", lease.Token)
				}
				done <- serr
			}()
			if serr := d.Release("bus", first.Token); serr != nil {
				t.Fatalf("release agent 2: %v", serr)
			}
			if serr := <-done; serr != nil {
				t.Fatalf("agent 4: %v", serr)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 4, "RR1"))

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"unknown resource", "/v1/acquire?resource=nope&agent=1", http.StatusNotFound},
		{"missing resource", "/v1/acquire?agent=1", http.StatusBadRequest},
		{"bad agent", "/v1/acquire?resource=bus&agent=zero", http.StatusBadRequest},
		{"agent out of range", "/v1/acquire?resource=bus&agent=5", http.StatusBadRequest},
		{"agent zero", "/v1/acquire?resource=bus&agent=0", http.StatusBadRequest},
		{"bad timeout", "/v1/acquire?resource=bus&agent=1&timeout=xyz", http.StatusBadRequest},
		{"negative timeout", "/v1/acquire?resource=bus&agent=1&timeout=-1s", http.StatusBadRequest},
		{"negative ttl", "/v1/acquire?resource=bus&agent=1&ttl=-1s", http.StatusBadRequest},
		{"release missing token", "/v1/release?resource=bus", http.StatusBadRequest},
		{"release unknown token", "/v1/release?resource=bus&token=nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.url, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	// Wrong method: the mux's method patterns answer 405.
	resp, err := http.Get(srv.URL + "/v1/acquire?resource=bus&agent=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET acquire status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 2, "FP"))
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

// TestQueuedAcquireTimesOut pins 408 backpressure: a waiter whose
// client timeout passes while the resource is held is answered 408.
func TestQueuedAcquireTimesOut(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 4, "RR1"))

	code, lease := httpAcquire(t, srv.URL, "bus", 1, "")
	if code != http.StatusOK {
		t.Fatalf("holder acquire status %d", code)
	}
	start := time.Now()
	code, _ = httpAcquire(t, srv.URL, "bus", 2, "&timeout=50ms")
	if code != http.StatusRequestTimeout {
		t.Fatalf("queued acquire status %d, want 408", code)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("408 after only %v; the deadline should have been honored", waited)
	}
	httpRelease(t, srv.URL, "bus", lease.Token)
}

// TestQueueFullAnswers503 pins the load-shedding path.
func TestQueueFullAnswers503(t *testing.T) {
	d, srv := newTestDaemon(t, func() ResourceConfig {
		rc := res("bus", 4, "RR1")
		rc.MaxQueue = 1
		return rc
	}())

	code, lease := httpAcquire(t, srv.URL, "bus", 1, "")
	if code != http.StatusOK {
		t.Fatalf("holder acquire status %d", code)
	}
	// One waiter fits the queue...
	waiterDone := make(chan int, 1)
	go func() {
		code, l := httpAcquire(t, srv.URL, "bus", 2, "&timeout=5s")
		if code == http.StatusOK {
			httpRelease(t, srv.URL, "bus", l.Token)
		}
		waiterDone <- code
	}()
	// ...and only once the shard has admitted it (its request line
	// shows in the tally) is the queue actually full.
	s := d.shards["bus"]
	deadline := time.Now().Add(2 * time.Second)
	for {
		var queued bool
		s.probe.Do(func() { queued = s.tally.requests[2] > 0 })
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never reached the shard queue")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := httpAcquire(t, srv.URL, "bus", 3, ""); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow acquire status %d, want 503", code)
	}
	httpRelease(t, srv.URL, "bus", lease.Token)
	if code := <-waiterDone; code != http.StatusOK {
		t.Fatalf("queued waiter status %d, want 200 after release", code)
	}
}

// TestLeaseExpiry pins the TTL: an unreleased lease lapses, the next
// waiter is granted, and the stale token is dead.
func TestLeaseExpiry(t *testing.T) {
	rc := res("bus", 4, "FCFS2")
	rc.TTL = 40 * time.Millisecond
	_, srv := newTestDaemon(t, rc)

	code, stale := httpAcquire(t, srv.URL, "bus", 1, "")
	if code != http.StatusOK {
		t.Fatalf("first acquire status %d", code)
	}
	start := time.Now()
	code, lease := httpAcquire(t, srv.URL, "bus", 2, "&timeout=5s")
	if code != http.StatusOK {
		t.Fatalf("post-expiry acquire status %d, want 200", code)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("second grant after only %v; should have waited out the TTL", waited)
	}
	if code := httpRelease(t, srv.URL, "bus", stale.Token); code != http.StatusNotFound {
		t.Errorf("stale token release status %d, want 404", code)
	}
	httpRelease(t, srv.URL, "bus", lease.Token)
}

// TestSameAgentWaitersServeInOrder pins the line re-assert path: two
// clients sharing one identity are granted one after the other.
func TestSameAgentWaitersServeInOrder(t *testing.T) {
	_, srv := newTestDaemon(t, res("bus", 2, "RR1"))

	var wg sync.WaitGroup
	grants := make(chan string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, lease := httpAcquire(t, srv.URL, "bus", 1, "&timeout=5s")
			if code != http.StatusOK {
				t.Errorf("shared-identity acquire status %d", code)
				return
			}
			grants <- lease.Token
			time.Sleep(2 * time.Millisecond)
			httpRelease(t, srv.URL, "bus", lease.Token)
		}()
	}
	wg.Wait()
	close(grants)
	seen := map[string]bool{}
	for tok := range grants {
		if seen[tok] {
			t.Errorf("token %q granted twice", tok)
		}
		seen[tok] = true
	}
	if len(seen) != 2 {
		t.Errorf("granted %d distinct leases, want 2", len(seen))
	}
}

// TestMetricz pins the observability surface: tallies add up and the
// JSON document is well-formed.
func TestMetricz(t *testing.T) {
	rc := res("bus", 3, "RR3")
	rc.MetricsWindow = 0.02 // close windows fast so quantiles appear
	_, srv := newTestDaemon(t, rc, res("gpu", 2, "FP"))

	const grantsWanted = 9
	for i := 0; i < grantsWanted; i++ {
		agent := 1 + i%3
		code, lease := httpAcquire(t, srv.URL, "bus", agent, "&timeout=5s")
		if code != http.StatusOK {
			t.Fatalf("acquire %d status %d", i, code)
		}
		httpRelease(t, srv.URL, "bus", lease.Token)
	}

	resp, err := http.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		UptimeSeconds float64                    `json:"uptime_s"`
		Resources     map[string]ResourceMetrics `json:"resources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding metricz: %v", err)
	}
	if payload.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", payload.UptimeSeconds)
	}
	bus, ok := payload.Resources["bus"]
	if !ok {
		t.Fatalf("metricz missing resource bus: %v", payload.Resources)
	}
	if bus.Protocol != "RR3" || len(bus.Agents) != 3 {
		t.Fatalf("bus entry %+v", bus)
	}
	var grants, requests int64
	for _, a := range bus.Agents {
		grants += a.Grants
		requests += a.Requests
	}
	if grants != grantsWanted || requests != grantsWanted {
		t.Errorf("bus grants=%d requests=%d, want %d each", grants, requests, grantsWanted)
	}
	if bus.Arbitrations != grantsWanted {
		t.Errorf("bus arbitrations=%d, want %d", bus.Arbitrations, grantsWanted)
	}
	if bus.Repasses == 0 {
		t.Errorf("RR3 made no repasses over %d grants; expected at least the reset pass", grantsWanted)
	}
	if gpu := payload.Resources["gpu"]; gpu.Protocol != "FP" || len(gpu.Agents) != 2 {
		t.Errorf("gpu entry %+v", payload.Resources["gpu"])
	}
}

// TestConfigValidate pins New's error paths.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no resources", Config{}},
		{"empty name", Config{Resources: []ResourceConfig{{Agents: 2, Protocol: "RR1"}}}},
		{"no agents", Config{Resources: []ResourceConfig{{Name: "a", Protocol: "RR1"}}}},
		{"bad protocol", Config{Resources: []ResourceConfig{{Name: "a", Agents: 2, Protocol: "NOPE"}}}},
		{"duplicate", Config{Resources: []ResourceConfig{
			{Name: "a", Agents: 2, Protocol: "RR1"}, {Name: "a", Agents: 2, Protocol: "FP"}}}},
		{"negative tick", Config{Resources: []ResourceConfig{
			{Name: "a", Agents: 2, Protocol: "RR1", Tick: -time.Second}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if d, err := New(tc.cfg); err == nil {
				d.Close()
				t.Error("New succeeded, want error")
			}
		})
	}
}

// TestGracefulShutdown pins the two halves of the shutdown contract:
// queued waiters are answered 503 rather than abandoned, and every
// shard goroutine exits (no leaks).
func TestGracefulShutdown(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	d, err := New(Config{Resources: []ResourceConfig{
		res("bus", 4, "RR1"), res("gpu", 2, "FCFS1"), res("disk", 8, "FCFS2"),
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Hold bus so a second acquire queues, then close underneath it.
	lease, herr := d.shards["bus"].acquire(context.Background(), 1, 0, 0)
	if herr != nil {
		t.Fatalf("holder acquire: %v", herr)
	}
	_ = lease
	waiterCode := make(chan int, 1)
	go func() {
		_, herr := d.shards["bus"].acquire(context.Background(), 2, 0, 0)
		if herr == nil {
			waiterCode <- 200
		} else {
			waiterCode <- herr.code
		}
	}()
	// Let the waiter reach the shard queue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var queued bool
		s := d.shards["bus"]
		s.probe.Do(func() { queued = s.tally.requests[2] > 0 })
		if queued || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	d.Close()
	if code := <-waiterCode; code != 503 {
		t.Errorf("queued waiter got %d on shutdown, want 503", code)
	}
	// Acquires after Close are refused, not hung.
	if _, herr := d.shards["bus"].acquire(context.Background(), 1, 0, 0); herr == nil || herr.code != 503 {
		t.Errorf("post-Close acquire = %v, want 503", herr)
	}
	d.Close() // idempotent

	// Every shard loop must have exited.
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
