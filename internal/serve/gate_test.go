package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gatedModel creates a model and takes every running slot of its gate, so the
// next predicts wait. release hands the slots back.
func gatedModel(t *testing.T, s *Server, n int, seed uint64) (m *model, release func()) {
	t.Helper()
	createTestModel(t, s, "m", n, seed)
	m, ok := s.lookup("m")
	if !ok {
		t.Fatal("model missing")
	}
	for i := 0; i < cap(m.slots); i++ {
		m.slots <- struct{}{}
	}
	return m, func() {
		for i := 0; i < cap(m.slots); i++ {
			<-m.slots
		}
	}
}

// predictAsync sends one 1-point predict on its own goroutine; the status
// arrives on the returned channel.
func predictAsync(t *testing.T, s *Server, ctx context.Context) <-chan int {
	t.Helper()
	body, err := json.Marshal(PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/m/predict", bytes.NewReader(body)).WithContext(ctx))
		code <- rec.Code
	}()
	return code
}

// waitFor polls until cond holds; the states waited for (a request counted
// at the gate, a model out of the registry) have no channel to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A full gate sheds: with every slot taken and MaxQueue requests waiting, the
// next one is answered 503 at once; the waiters run once slots come free.
func TestGateShedsWhenFull(t *testing.T) {
	s := New(Config{MaxQueue: 2})
	defer s.Close()
	m, release := gatedModel(t, s, 36, 1)
	bg := context.Background()
	waiters := []<-chan int{predictAsync(t, s, bg), predictAsync(t, s, bg)}
	waitFor(t, "two waiters at the gate", func() bool { return m.waiting.Load() == 2 })

	if code := <-predictAsync(t, s, bg); code != http.StatusServiceUnavailable {
		t.Fatalf("predict beyond MaxQueue: status %d, want 503", code)
	}
	release()
	for i, w := range waiters {
		if code := <-w; code != http.StatusOK {
			t.Fatalf("waiter %d after slots came free: status %d, want 200", i, code)
		}
	}
}

// Shutdown sheds the predicts waiting at the gate with 503 instead of
// running them, and does not wait for slots they would have needed.
func TestShutdownShedsWaiters(t *testing.T) {
	s := New(Config{})
	m, _ := gatedModel(t, s, 36, 2)
	shed0 := cntPredictShed.Value()
	bg := context.Background()
	waiters := []<-chan int{predictAsync(t, s, bg), predictAsync(t, s, bg), predictAsync(t, s, bg)}
	waitFor(t, "three waiters at the gate", func() bool { return m.waiting.Load() == 3 })

	s.Close() // returns although every slot is still taken
	for i, w := range waiters {
		if code := <-w; code != http.StatusServiceUnavailable {
			t.Fatalf("waiter %d at shutdown: status %d, want 503", i, code)
		}
	}
	if got := m.predicts.Load(); got != 0 {
		t.Fatalf("%d shed predicts reached the session", got)
	}
	if d := cntPredictShed.Value() - shed0; d != 3 {
		t.Fatalf("serve.predict.shed rose by %d, want 3", d)
	}
	if code := <-predictAsync(t, s, bg); code != http.StatusServiceUnavailable {
		t.Fatalf("predict after shutdown: status %d, want 503", code)
	}
}

// Deleting a model (not shutdown) waits for the predicts that already found
// it — waiting or running — and they succeed; later ones get 404.
func TestDeleteWaitsForInFlight(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	m, release := gatedModel(t, s, 36, 3)
	bg := context.Background()
	inflight := []<-chan int{predictAsync(t, s, bg), predictAsync(t, s, bg)}
	waitFor(t, "two waiters at the gate", func() bool { return m.waiting.Load() == 2 })

	deleted := make(chan int, 1)
	go func() { deleted <- do(t, s, "DELETE", "/v1/models/m", nil, nil) }()
	waitFor(t, "the model to leave the registry", func() bool { _, ok := s.lookup("m"); return !ok })
	if code := <-predictAsync(t, s, bg); code != http.StatusNotFound {
		t.Fatalf("predict after delete: status %d, want 404", code)
	}
	select {
	case code := <-deleted:
		t.Fatalf("delete answered %d while two predicts were still in flight", code)
	default:
	}

	release()
	for i, w := range inflight {
		if code := <-w; code != http.StatusOK {
			t.Fatalf("in-flight predict %d across delete: status %d, want 200", i, code)
		}
	}
	if code := <-deleted; code != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", code)
	}
}

// A predict whose client disconnects while it waits for a slot is dropped
// without touching the session, counted by serve.predict.shed.
func TestCancelledWaiterIsShed(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	m, release := gatedModel(t, s, 36, 4)
	shed0 := cntPredictShed.Value()
	ctx, cancel := context.WithCancel(context.Background())
	waiter := predictAsync(t, s, ctx)
	waitFor(t, "a waiter at the gate", func() bool { return m.waiting.Load() == 1 })
	cancel()
	if code := <-waiter; code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled waiter: status %d, want 503", code)
	}
	release()
	if got := m.predicts.Load(); got != 0 {
		t.Fatalf("the cancelled predict reached the session (%d served)", got)
	}
	if d := cntPredictShed.Value() - shed0; d != 1 {
		t.Fatalf("serve.predict.shed rose by %d, want 1", d)
	}
	// A request already cancelled when it arrives is shed at a free gate too.
	if code := <-predictAsync(t, s, ctx); code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request at a free gate: status %d, want 503", code)
	}
	if code := <-predictAsync(t, s, context.Background()); code != http.StatusOK {
		t.Fatalf("live predict afterwards: status %d, want 200", code)
	}
}

// A slow variance batch must not hold up a mean predict on the same model:
// both only read the session's cached factor. The batch is sized to run for
// a long time next to the 1-point mean request, which has to be answered
// while the batch is still in the session.
func TestSlowVarianceDoesNotDelayMean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two slots whatever the machine
	s := New(Config{})
	defer s.Close()
	pts, _ := createTestModel(t, s, "m", 400, 5)
	m, _ := s.lookup("m")

	batch := PredictRequest{WithVariance: true}
	for len(batch.Points) < 4096 {
		batch.Points = append(batch.Points, pts...)
	}
	slow := make(chan int, 1)
	go func() { slow <- do(t, s, "POST", "/v1/models/m/predict", batch, nil) }()
	waitFor(t, "the variance batch to take a slot", func() bool { return len(m.slots) == 1 })

	if code := <-predictAsync(t, s, context.Background()); code != http.StatusOK {
		t.Fatalf("mean predict beside the variance batch: status %d, want 200", code)
	}
	select {
	case code := <-slow:
		t.Fatalf("the variance batch (status %d) finished before the mean predict was answered", code)
	default:
	}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("variance batch: status %d, want 200", code)
	}
}

// Full-stack shutdown under concurrency: predicts race Server.Close, and
// every request gets exactly one of 200 (ran before shutdown), 503 (shed or
// rejected), or 404 (model already removed). Ingests during shutdown are
// rejected with 503. Run with -race; the interesting property is the absence
// of hangs, panics, and replyless jobs.
func TestShutdownUnderConcurrentLoad(t *testing.T) {
	s := New(Config{MaxPoints: 200, MaxQueue: 4})
	createTestModel(t, s, "m", 36, 1)

	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, 16)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}
			codes[i] = do(t, s, "POST", "/v1/models/m/predict", req, nil)
		}(i)
	}
	close(start)
	s.Close()
	wg.Wait()
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusNotFound:
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}

	// New ingests after shutdown: 503.
	pts, z := testDataset(t, 36, 2)
	req := CreateModelRequest{Name: "late", Points: pts, Z: z, Theta: &testTheta}
	if code := do(t, s, "POST", "/v1/models", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create during shutdown: status %d, want 503", code)
	}
}
