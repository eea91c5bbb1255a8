package serveapi

// Crash-recovery harness: the acceptance exercise for the durability layer.
// The test re-execs its own binary as a miniature serve process (TestMain
// intercepts the env var before any test runs), points it at a journal and
// spill directory, kill -9s it mid-batch, restarts it on the same
// directories, and asserts that every accepted job reaches a terminal state
// with results matching an independent local solve.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/wal"
)

const (
	crashChildEnv   = "SERVE_CRASH_CHILD"
	crashJournalEnv = "SERVE_CRASH_JOURNAL"
	crashCacheEnv   = "SERVE_CRASH_CACHE"
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		runCrashChild()
		return // unreachable; runCrashChild never returns
	}
	os.Exit(m.Run())
}

// runCrashChild is the child side of the harness: a minimal serve process —
// engine with disk spill, journaled queue, recovery before listen — that
// prints its address and serves until killed.
func runCrashChild() {
	journalDir := os.Getenv(crashJournalEnv)
	cacheDir := os.Getenv(crashCacheEnv)
	engine := morestress.NewEngine(morestress.EngineOptions{CacheDir: cacheDir})
	journal, err := wal.Open(journalDir, wal.Options{})
	if err != nil {
		log.Fatalf("crash child: %v", err)
	}
	queue, err := NewQueue(engine, 16, 1, 10*time.Minute, 0, journal)
	if err != nil {
		log.Fatalf("crash child: %v", err)
	}
	if _, err := queue.Recover(); err != nil {
		log.Fatalf("crash child: recover: %v", err)
	}
	srv := New(engine, queue)
	srv.Journal = journal
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("crash child: %v", err)
	}
	fmt.Printf("ADDR=%s\n", ln.Addr())
	os.Stdout.Sync()
	log.Fatal(http.Serve(ln, srv.Routes()))
}

// startCrashChild launches the child on the given directories and returns
// its base URL. The returned kill function SIGKILLs it (idempotent).
func startCrashChild(t *testing.T, journalDir, cacheDir string) (baseURL string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1", crashJournalEnv+"="+journalDir, crashCacheEnv+"="+cacheDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cmd.Process.Kill() // SIGKILL: no chance to flush or clean up
			cmd.Wait()
		}
	}
	t.Cleanup(kill)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
			return "http://" + addr, kill
		}
	}
	t.Fatalf("crash child exited before printing its address (scan err: %v)", sc.Err())
	return "", nil
}

// crashStats decodes the subset of /stats the harness watches.
type crashStats struct {
	Queue struct {
		ScenariosSolved int64 `json:"scenariosSolved"`
	} `json:"queue"`
	Journal *JournalStats `json:"journal"`
}

func getCrashStats(t *testing.T, base string) (crashStats, error) {
	t.Helper()
	var st crashStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func TestCrashRecoveryLosesNoAcceptedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness re-execs the test binary and solves real scenarios")
	}
	journalDir := t.TempDir()
	cacheDir := t.TempDir()

	base, kill := startCrashChild(t, journalDir, cacheDir)

	// One multi-scenario batch: enough scenarios that the kill lands
	// mid-batch, each cheap (coarse resolution, 3 nodes, small lattice).
	const scenarios = 12
	var sb strings.Builder
	sb.WriteString(`{"jobs":[`)
	deltaT := func(i int) float64 { return -250 + 10*float64(i) }
	for i := 0; i < scenarios; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"resolution":"coarse","nodes":3,"rows":4,"cols":4,"deltaT":%g,"gridSamples":50}`, deltaT(i))
	}
	sb.WriteString(`]}`)
	var sub SubmitResponse
	if code := postJSON(t, base+"/jobs", sb.String(), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	// Kill once at least one scenario has solved but (almost certainly)
	// not all: the job dies as running, with journaled partial progress.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never solved a scenario")
		}
		st, err := getCrashStats(t, base)
		if err == nil && st.Queue.ScenariosSolved >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	kill()

	// Restart on the same directories: recovery must resurrect the job
	// under its original ID and run it to completion.
	base2, _ := startCrashChild(t, journalDir, cacheDir)
	st, err := getCrashStats(t, base2)
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st.Journal == nil || st.Journal.RecordsReplayed == 0 {
		t.Fatalf("restarted child replayed no journal records: %+v", st.Journal)
	}
	if st.Journal.Requeued+st.Journal.Restored == 0 {
		t.Fatalf("accepted job lost across kill -9: %+v", st.Journal)
	}

	var status JobStatusResponse
	deadline = time.Now().Add(5 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state after recovery (last: %+v)", sub.ID, status)
		}
		resp, err := http.Get(base2 + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatalf("poll recovered job: %v", err)
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if code == http.StatusNotFound {
			t.Fatalf("recovered child does not know job %s", sub.ID)
		}
		if err != nil {
			t.Fatalf("decode job status: %v", err)
		}
		if s := jobState(status.State); s == "done" || s == "failed" || s == "cancelled" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.State != "done" {
		t.Fatalf("recovered job state = %s (error %q), want done", status.State, status.Error)
	}
	if status.Completed != scenarios || len(status.Results) != scenarios {
		t.Fatalf("recovered job completed %d/%d with %d results", status.Completed, scenarios, len(status.Results))
	}

	// Correctness: each recovered result must match an independent local
	// solve of the same scenario. The local engine mounts the same spill
	// dir, which also proves the ROMs the child wrote load back verified.
	local := morestress.NewEngine(morestress.EngineOptions{CacheDir: cacheDir})
	for i, got := range status.Results {
		if got.Error != "" || !got.Converged {
			t.Fatalf("scenario %d: error %q converged %v", i, got.Error, got.Converged)
		}
		dt := deltaT(i)
		req := JobRequest{Resolution: "coarse", Nodes: 3, Rows: 4, Cols: 4, DeltaT: &dt, GridSamples: 50}
		job, err := req.ToJob()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := local.Solve(job)
		if want.Err != nil {
			t.Fatalf("local solve %d: %v", i, want.Err)
		}
		wantMax := want.Result.VM.Max()
		if rel := math.Abs(got.MaxVonMises-wantMax) / math.Max(math.Abs(wantMax), 1); rel > 1e-3 {
			t.Errorf("scenario %d: maxVonMises %g, local solve %g (rel %g)", i, got.MaxVonMises, wantMax, rel)
		}
		if got.GlobalDoFs != want.Result.GlobalDoFs {
			t.Errorf("scenario %d: globalDoFs %d, want %d", i, got.GlobalDoFs, want.Result.GlobalDoFs)
		}
	}
	// The journal directory must still be there for the next restart, and
	// the cache dir must hold a verified spill (no orphan tmp files).
	if ents, err := os.ReadDir(cacheDir); err == nil {
		for _, e := range ents {
			if strings.Contains(e.Name(), ".tmp") {
				t.Errorf("orphan spill temp file survived: %s", e.Name())
			}
		}
	}
	if ents, err := filepath.Glob(filepath.Join(journalDir, "wal-*.log")); err != nil || len(ents) == 0 {
		t.Errorf("no journal segments on disk after recovery (err %v)", err)
	}
}

// jobState normalizes the JSON state string.
func jobState(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
