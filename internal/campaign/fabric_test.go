package campaign

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// freeLoopbackAddr reserves a loopback port for the coordinator. The
// bind-close-rebind window is racy in principle, but the port is only
// handed to this test's own coordinator immediately after.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// joinUntilDone keeps an executor joined at addr until the campaign
// completes, retrying while the coordinator has not bound yet (the
// coordinator only starts listening after planning).
func joinUntilDone(ctx context.Context, t *testing.T, addr string, opts JoinOptions) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := JoinFabric(ctx, addr, opts)
		if err == nil || ctx.Err() != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("executor %s never completed: %v", opts.Name, err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fabricConfig(addr string, hosts int) Config {
	cfg := isolationConfig()
	cfg.Fabric = &FabricOptions{
		Listen:            addr,
		MinHosts:          hosts,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	return cfg
}

// TestFabricMatchesInProc is the distributed tentpole's core contract: a
// campaign sharded over two loopback executors must reproduce the
// in-process campaign bit for bit — same entries, same counts, same
// ExecStats.
func TestFabricMatchesInProc(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"exec-a", "exec-b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			joinUntilDone(ctx, t, addr, JoinOptions{Name: name, Workers: 2})
		}(name)
	}
	res, err := Run(fabricConfig(addr, 2))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if !sameEntries(res, ref) {
		t.Error("the fabric changed the campaign outcome")
	}
	if res.Exec != ref.Exec {
		t.Errorf("fabric ExecStats %+v, in-process %+v", res.Exec, ref.Exec)
	}
}

// TestFabricJournalMatchesSerial: the canonicalized journal of a two-host
// fabric campaign must be byte-identical to the journal a serial (one
// worker, in-process) run writes naturally in unit order — the merge's
// determinism pinned at the file level.
func TestFabricJournalMatchesSerial(t *testing.T) {
	serialPath := filepath.Join(t.TempDir(), "serial.wal")
	js, err := journal.Create(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	serial := isolationConfig()
	serial.Workers = 1
	serial.Journal = js
	if _, err := Run(serial); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	fabricPath := filepath.Join(t.TempDir(), "fabric.wal")
	jf, err := journal.Create(fabricPath)
	if err != nil {
		t.Fatal(err)
	}
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"exec-a", "exec-b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			joinUntilDone(ctx, t, addr, JoinOptions{Name: name, Workers: 2})
		}(name)
	}
	cfg := fabricConfig(addr, 2)
	cfg.Journal = jf
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fabricPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(got) == 0 {
		t.Fatal("a journal is empty; the comparison proves nothing")
	}
	if string(got) != string(want) {
		t.Fatalf("fabric journal (%d bytes) differs from the serial journal (%d bytes)", len(got), len(want))
	}
}

// TestFabricResumesJournal: a fabric campaign over a partially filled
// journal replays the journaled units and only shards the remainder,
// landing on the same Result.
func TestFabricResumesJournal(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}

	// First pass: interrupt a serial journaled run after 2 units.
	path := filepath.Join(t.TempDir(), "resume.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	j.OnAppend = func(done int) {
		if done >= 2 {
			cancel1()
		}
	}
	first := isolationConfig()
	first.Workers = 1
	first.Ctx = ctx1
	first.Journal = j
	if _, err := Run(first); err == nil {
		cancel1()
		t.Fatal("interrupted run finished cleanly; the resume would be vacuous")
	}
	cancel1()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second pass: resume the journal under the fabric.
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		joinUntilDone(ctx, t, addr, JoinOptions{Name: "exec-a", Workers: 2})
	}()
	cfg := fabricConfig(addr, 1)
	cfg.Journal = j2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if res.Exec.Replayed < 2 {
		t.Errorf("replayed %d units, want at least the 2 journaled before the interrupt", res.Exec.Replayed)
	}
	if !sameEntries(res, ref) {
		t.Error("resuming a journal under the fabric changed the campaign outcome")
	}
}

// TestFabricProcExecutorMatchesSerial: a fabric whose second executor runs
// its batches under process isolation (JoinOptions.Isolation, spawning this
// test binary's worker mode) must reproduce a serial in-process run: a
// deep-equal Result, the fleet breakdown aside, and a byte-identical
// canonical journal. The in-process executor is paced so that it cannot
// steal the whole campaign before the proc executor's workers are up.
func TestFabricProcExecutorMatchesSerial(t *testing.T) {
	serialPath := filepath.Join(t.TempDir(), "serial.wal")
	js, err := journal.Create(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	serial := isolationConfig()
	serial.Workers = 1
	serial.Journal = js
	ref, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	fabricPath := filepath.Join(t.TempDir(), "fabric.wal")
	jf, err := journal.Create(fabricPath)
	if err != nil {
		t.Fatal(err)
	}
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, opts := range []JoinOptions{
		{Name: "exec-inproc", Workers: 2, unitPace: 20 * time.Millisecond},
		{Name: "exec-proc", Workers: 2, Isolation: IsolationProc, Proc: procConfig().Proc},
	} {
		wg.Add(1)
		go func(opts JoinOptions) {
			defer wg.Done()
			joinUntilDone(ctx, t, addr, opts)
		}(opts)
	}
	cfg := fabricConfig(addr, 2)
	cfg.Journal = jf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	var procMerged int
	for _, h := range res.Hosts {
		if h.Name == "exec-proc" {
			procMerged = h.Merged
		}
	}
	if procMerged == 0 {
		t.Errorf("the proc executor delivered none of the merged verdicts (hosts %+v); the test proved nothing", res.Hosts)
	}
	res.Hosts = nil
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("fabric with a proc executor changed the Result:\nfabric: %+v\nserial: %+v", res, ref)
	}
	want, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fabricPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || string(got) != string(want) {
		t.Fatalf("fabric journal (%d bytes) differs from the serial journal (%d bytes)", len(got), len(want))
	}
}
