package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/sweep"
)

// testServer wires a queue into an httptest server and tears both down
// in order (HTTP first, then the queue, mirroring tsserve).
func testServer(t *testing.T, cfg QueueConfig) (*httptest.Server, *Queue) {
	t.Helper()
	q := NewQueue(cfg)
	ts := httptest.NewServer(NewServer(q))
	t.Cleanup(func() {
		ts.Close()
		q.Close()
	})
	return ts, q
}

func submitBody(t *testing.T, spec *repro.PlanSpec) *bytes.Reader {
	t.Helper()
	data, err := EncodePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func decodeStatus(t *testing.T, r io.Reader) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerEndToEnd is the acceptance pin: an HTTP-fetched report is
// byte-identical to the same plan run in-process, and a second
// coinciding submit is served from cache with zero additional engine
// runs, asserted via the engine's RunCount.
func TestServerEndToEnd(t *testing.T) {
	sweep.ResetBuildStats()
	ts, q := testServer(t, QueueConfig{})

	spec := smallSpec(t, 61)

	// Submit detached; poll to completion; fetch the result.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q does not match job %q", loc, st.ID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for st.State == StateQueued || st.State == StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		st = decodeStatus(t, r.Body)
		r.Body.Close()
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Stats == nil || st.Stats.Builds == 0 {
		t.Fatalf("done status carries no engine stats: %+v", st)
	}

	r, err := http.Get(ts.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	httpReport, err := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", r.StatusCode, httpReport)
	}

	// The same spec run in-process must produce the same bytes.
	plan, err := spec.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpReport, local) {
		t.Fatalf("HTTP report differs from in-process run:\n http %s\nlocal %s", httpReport, local)
	}

	// Second coinciding submit: cache hit, zero extra engine runs
	// beyond the local comparison run above.
	runsAfter := sweep.RunCount()
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	st2 := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("second submit not served from cache: %+v", st2)
	}
	r2, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if !bytes.Equal(cached, httpReport) {
		t.Fatal("cached result differs from the original")
	}
	if got := sweep.RunCount(); got != runsAfter {
		t.Fatalf("cache hit ran the engine (RunCount %d → %d)", runsAfter, got)
	}
	if qs := q.Stats(); qs.RunCount != 1 || qs.CacheHits != 1 {
		t.Fatalf("queue stats = %+v, want RunCount 1, CacheHits 1", qs)
	}
}

// TestServerAttachedSubmit: ?wait=1 holds the request and returns the
// report envelope directly.
func TestServerAttachedSubmit(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", submitBody(t, smallSpec(t, 63)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attached submit: %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Job-ID") == "" {
		t.Fatal("attached response carries no job ID")
	}
	if _, err := DecodeReport(body); err != nil {
		t.Fatalf("attached response is not a report envelope: %v", err)
	}
}

// TestServerSSE: the events endpoint replays buffered progress, then
// streams live events, then closes with a done event carrying the
// final status.
func TestServerSSE(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, smallSpec(t, 65)))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	es, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress int
	var done *JobStatus
	sc := bufio.NewScanner(es.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				ev, err := DecodeProgress([]byte(data))
				if err != nil {
					t.Fatalf("progress frame: %v", err)
				}
				if ev.Stage.String() == "" {
					t.Fatal("progress frame with no stage")
				}
				progress++
			case "done":
				var final JobStatus
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done frame: %v", err)
				}
				done = &final
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("no progress events streamed")
	}
	if done == nil || done.State != StateDone {
		t.Fatalf("stream did not end with a done status: %+v", done)
	}
}

// TestServerCancel: DELETE aborts a running job; its result endpoint
// then reports the conflict.
func TestServerCancel(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	spec := smallSpec(t, 67)
	spec.Refine = 6
	spec.MaxInFlight = 1
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = decodeStatus(t, r.Body)
		r.Body.Close()
		if st.State == StateCanceled || st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A fast run may legitimately win the race and finish; when it was
	// cancelled, the result endpoint must 409.
	if st.State == StateCanceled {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusConflict {
			t.Fatalf("result of cancelled job: %d, want 409", r.StatusCode)
		}
	}
}

// TestServerErrorMapping covers the 4xx surface: malformed envelopes,
// wrong versions, unknown fields, bad specs, unknown jobs, fingerprint
// conflicts and oversized bodies.
func TestServerErrorMapping(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(resp *http.Response, want int, wantSub string) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d (%s)", resp.StatusCode, want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Fatalf("error body is not {\"error\": ...}: %s", body)
		}
		if wantSub != "" && !strings.Contains(eb.Error, wantSub) {
			t.Fatalf("error %q does not mention %q", eb.Error, wantSub)
		}
	}

	check(post(`not json`), http.StatusBadRequest, "envelope")
	check(post(`{"v":9,"plan":{}}`), http.StatusBadRequest, "unsupported codec version")
	check(post(`{"v":1,"plan":{"surprise":1}}`), http.StatusBadRequest, "surprise")
	check(post(`{"v":1,"plan":{}}`), http.StatusBadRequest, "stream")
	check(post(`{"v":1,"plan":{"inline":[{"u":"a","v":"b","t":1}],"metrics":["vibes"]}}`), http.StatusBadRequest, "vibes")
	check(post(`{"v":1,"plan":{"stream":{"path":"x.lsc"}}}`), http.StatusBadRequest, "stream root")

	r, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(r, http.StatusNotFound, "nope")

	// Oversized body.
	big := fmt.Sprintf(`{"v":1,"plan":{"metrics":["%s"]}}`, strings.Repeat("x", MaxSpecBytes))
	check(post(big), http.StatusRequestEntityTooLarge, "")
}

// TestServerRejectsOversizedPlan: a spec whose grid_points would size a
// billion-slot candidate grid, or whose explicit grid lists one period
// more than repro.MaxGridPoints, is refused at submit with a 400 naming
// the bound, before any engine run.
func TestServerRejectsOversizedPlan(t *testing.T) {
	ts, q := testServer(t, QueueConfig{})
	points := smallSpec(t, 3)
	points.GridPoints = 1 << 30
	explicit := smallSpec(t, 3)
	explicit.GridPoints = 0
	for i := int64(1); i <= repro.MaxGridPoints+1; i++ {
		explicit.Grid = append(explicit.Grid, i)
	}
	for _, tc := range []struct {
		spec  *repro.PlanSpec
		field string
	}{
		{points, "grid points"},
		{explicit, "explicit grid length"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", submitBody(t, tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.field, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.field) {
			t.Fatalf("error does not name the bounded field %q: %s", tc.field, body)
		}
	}
	if st := q.Stats(); st.RunCount != 0 {
		t.Fatalf("oversized specs started %d engine runs", st.RunCount)
	}
}

// TestServerTenantHeader: X-Tenant lands on the job and its budget.
func TestServerTenantHeader(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, smallSpec(t, 71)))
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.Tenant != "acme" {
		t.Fatalf("tenant = %q, want acme", st.Tenant)
	}
}

// TestServerStatsEndpoint: queue counters are served as JSON.
func TestServerStatsEndpoint(t *testing.T) {
	ts, _ := testServer(t, QueueConfig{})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", submitBody(t, smallSpec(t, 73)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st QueueStats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.RunCount != 1 {
		t.Fatalf("stats = %+v, want one submitted run", st)
	}
}
