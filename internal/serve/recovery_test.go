package serve

// The kill -9 acceptance test: a real lsserved process with a durable
// data dir is loaded with a few hundred jobs, SIGKILLed mid-run, and
// restarted against the same directory. Every job the server ever
// acknowledged must be accounted for afterward — finished jobs with their
// original results and output hashes, stranded jobs as interrupted or
// re-enqueued — with no job lost and none duplicated, and idempotent
// resubmits honored across the restart.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"lucidscript/internal/gen"
)

// recoveryJobs is the default kill-and-restart population; override with
// LSSERVE_RECOVERY_JOBS to stress harder (the CI durability job does).
const recoveryJobs = 200

// TestServeKillRecovery builds lsserved, runs it durably, kills it with
// SIGKILL while jobs are in flight, restarts it on the same data dir, and
// audits the ledger.
func TestServeKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a real server process")
	}
	nJobs := recoveryJobs
	if env := os.Getenv("LSSERVE_RECOVERY_JOBS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad LSSERVE_RECOVERY_JOBS=%q", env)
		}
		nJobs = n
	}

	bin := buildLsserved(t)
	workDir := t.TempDir()
	corpusDir := filepath.Join(workDir, "corpus")
	dataDir := filepath.Join(workDir, "jobs")
	dataCSV := filepath.Join(workDir, "data.csv")
	writeCorpus(t, corpusDir, dataCSV)

	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-dataset", "gen=" + corpusDir + "," + dataCSV,
		"-data-dir", dataDir,
		"-tau", "0.9", "-seq", "4", "-beam", "3", "-max-rows", "80",
		"-serve-workers", "2",
		"-queue-depth", strconv.Itoa(2 * nJobs),
		"-job-retention", "1h",
	}
	proc := startLsserved(t, bin, args, base)
	client := NewClient(base, nil)
	ctx := context.Background()

	// Load the server from a background goroutine: every job carries an
	// idempotency key so the audit can exercise replay-vs-fresh across the
	// restart, and submitting concurrently with the kill is what leaves
	// queued and running jobs on the ledger when the process dies.
	var srcs []string
	for _, sc := range gen.New(7).Scripts(8) {
		srcs = append(srcs, sc.Source())
	}
	var mu sync.Mutex
	acked := make(map[string]string, nJobs) // job id → key
	submitterDone := make(chan struct{})
	go func() {
		defer close(submitterDone)
		for i := 0; i < nJobs; i++ {
			key := fmt.Sprintf("recov-%04d", i)
			st, err := client.SubmitIdempotent(ctx, "gen", srcs[i%len(srcs)], nil, key)
			if err != nil {
				return // the kill landed; everything acked so far is the audit set
			}
			mu.Lock()
			acked[st.ID] = key
			mu.Unlock()
		}
	}()

	// Kill -9 once a meaningful slice has finished but submissions are
	// (most likely) still flowing: the exact cut is timing-dependent, and
	// every interleaving is a valid durability scenario. Snapshot the
	// finished jobs just before the kill — those exact results must
	// survive.
	var doneBefore []JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		page, err := client.AllJobs(ctx, ListJobsQuery{State: StateDone})
		if err != nil {
			t.Fatalf("pre-kill list: %v", err)
		}
		doneBefore = page
		if len(page) >= nJobs/10 || time.Now().After(deadline) {
			break
		}
	}
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync, no goodbye
		t.Fatal(err)
	}
	proc.Wait()
	<-submitterDone
	mu.Lock()
	nAcked := len(acked)
	mu.Unlock()
	t.Logf("killed with %d/%d jobs acked, %d done", nAcked, nJobs, len(doneBefore))

	// Restart on the same directory and wait for the ledger to settle:
	// requeued jobs run to completion, the rest are already terminal.
	proc2 := startLsserved(t, bin, args, base)
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()

	all := waitAllTerminal(t, client, nAcked)

	// No acked job lost, none duplicated. The ledger may hold a few more
	// than the client saw acked — a submission whose 202 was in flight
	// when the kill landed is recorded server-side but never reached the
	// client; those are legitimate (and exactly what idempotency keys are
	// for), never fewer.
	seen := map[string]int{}
	for _, st := range all {
		seen[st.ID]++
	}
	for id := range acked {
		if seen[id] != 1 {
			t.Errorf("job %s appears %d times after restart, want exactly 1", id, seen[id])
		}
	}
	if len(all) < nAcked || len(all) > nJobs {
		t.Errorf("ledger holds %d jobs after restart, want between %d acked and %d submitted",
			len(all), nAcked, nJobs)
	}
	byID := map[string]JobStatus{}
	for _, st := range all {
		byID[st.ID] = st
	}

	// Jobs that were done before the kill survived byte-for-byte: same
	// hash, same finish instant (a changed timestamp would mean the
	// restart re-executed them).
	for _, want := range doneBefore {
		got, ok := byID[want.ID]
		if !ok {
			t.Errorf("finished job %s lost across kill", want.ID)
			continue
		}
		if got.State != StateDone || got.Result == nil {
			t.Errorf("finished job %s now %q (error %q)", want.ID, got.State, got.Error)
			continue
		}
		if got.Result.OutputHash != want.Result.OutputHash || got.Result.Script != want.Result.Script {
			t.Errorf("job %s result drifted across kill", want.ID)
		}
		if got.FinishedAt == nil || !got.FinishedAt.Equal(*want.FinishedAt) {
			t.Errorf("job %s finished_at %v → %v: it re-executed", want.ID, want.FinishedAt, got.FinishedAt)
		}
	}

	// Every job is in a coherent terminal state, and idempotent resubmits
	// behave per state: done/failed/canceled replay the original job;
	// interrupted keys were released and start fresh work.
	var interrupted, done int
	for id, st := range byID {
		key, haveKey := acked[id]
		switch st.State {
		case StateDone:
			done++
			if !haveKey {
				continue
			}
			replay, err := client.SubmitIdempotent(ctx, "gen", scriptOfKey(srcs, key), nil, key)
			if err != nil {
				t.Errorf("replay %s: %v", id, err)
			} else if replay.ID != id {
				t.Errorf("replay of done job %s returned %s: duplicated work", id, replay.ID)
			}
		case StateInterrupted:
			interrupted++
			if !haveKey {
				continue
			}
			fresh, err := client.SubmitIdempotent(ctx, "gen", scriptOfKey(srcs, key), nil, key)
			if err != nil {
				t.Errorf("resubmit %s: %v", id, err)
			} else if fresh.ID == id {
				t.Errorf("interrupted job %s replayed itself instead of starting fresh", id)
			} else if _, err := client.Wait(ctx, fresh.ID, 5*time.Millisecond); err != nil {
				t.Errorf("fresh job for %s: %v", id, err)
			}
		case StateFailed, StateCanceled:
			// Legitimate terminal outcomes (e.g. drained by the kill race);
			// nothing further to audit.
		default:
			t.Errorf("job %s non-terminal after settle: %q", id, st.State)
		}
	}
	t.Logf("after restart: %d done, %d interrupted", done, interrupted)
	if done < len(doneBefore) {
		t.Errorf("done count fell from %d to %d across the restart", len(doneBefore), done)
	}
}

// scriptOfKey maps an idempotency key (recov-%04d) back to the source it
// was submitted with.
func scriptOfKey(srcs []string, key string) string {
	var i int
	fmt.Sscanf(key, "recov-%d", &i)
	return srcs[i%len(srcs)]
}

// buildLsserved compiles cmd/lsserved into the test's temp space (the Go
// build cache makes repeat builds cheap).
func buildLsserved(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lsserved")
	cmd := exec.Command("go", "build", "-o", bin, "lucidscript/cmd/lsserved")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building lsserved: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus materializes the seeded generative corpus and dataset as
// real files for the server process — the same seed the in-process tests
// curate from, so search behavior is identical.
func writeCorpus(t *testing.T, corpusDir, dataCSV string) {
	t.Helper()
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	g := gen.New(42)
	for i, sc := range g.Scripts(8) {
		path := filepath.Join(corpusDir, fmt.Sprintf("s%02d.ls", i))
		if err := os.WriteFile(path, []byte(sc.Source()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range g.Sources(120) {
		if err := f.WriteCSVFile(dataCSV); err != nil {
			t.Fatal(err)
		}
	}
}

// startLsserved launches the server and blocks until /readyz answers.
func startLsserved(t *testing.T, bin string, args []string, base string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// /healthz answers 200 while the server is still booting (liveness);
	// /readyz is the probe that means "ready to serve".
	client := NewClient(base, nil)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Readyz(context.Background()); err == nil {
			return cmd
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("lsserved did not become ready in 30s")
	return nil
}

// waitAllTerminal polls the list endpoint until every job reads terminal.
func waitAllTerminal(t *testing.T, client *Client, want int) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		all, err := client.AllJobs(context.Background(), ListJobsQuery{Limit: 1000})
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		settled := len(all) >= want
		for _, st := range all {
			if !TerminalState(st.State) {
				settled = false
				break
			}
		}
		if settled {
			return all
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("jobs did not settle within 60s of the restart")
	return nil
}

// freePort grabs an ephemeral TCP port for the spawned server.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}
