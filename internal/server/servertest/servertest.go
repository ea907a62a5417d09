// Package servertest boots molcached servers on ephemeral ports for
// integration tests: a fixture owning the journal/checkpoint paths, a
// deterministic workload client, and Reboot/Restart helpers that
// exercise the SIGTERM-checkpoint → restore-or-cold-start path
// in-process.
package servertest

import (
	"testing"
	"time"

	"molcache/internal/addr"
	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/server"
)

// Options tunes the booted server. Zero values pick small deterministic
// defaults (1 MB 2x4 Randy cache, 400-access resize period, journal
// and checkpoint enabled under a test temp dir).
type Options struct {
	Molecular molecular.Config
	Resize    resize.Config
	Faults    faults.Campaign
	AddrBits  uint
	// NoJournal / NoCheckpoint disable the respective paths.
	NoJournal    bool
	NoCheckpoint bool
	// Obs mounts the introspection server.
	Obs bool
}

func (o Options) withDefaults() Options {
	if o.Molecular.TotalSize == 0 {
		o.Molecular = molecular.Config{
			TotalSize:        1 * addr.MB,
			Clusters:         2,
			TilesPerCluster:  4,
			Policy:           molecular.RandyReplacement,
			InitialMolecules: 8,
			Seed:             2006,
		}
	}
	if o.Resize.Period == 0 {
		o.Resize = resize.Config{Period: 400, MinPeriod: 200, MaxPeriod: 4000, DefaultGoal: 0.2}
	}
	return o
}

// Fixture is a booted molcached instance plus the paths its durable
// state lives at.
type Fixture struct {
	T              *testing.T
	Server         *server.Server
	JournalPath    string
	CheckpointPath string

	opts Options
}

// Boot starts a server with opts and registers a cleanup that closes
// it. The journal and checkpoint live in t.TempDir().
func Boot(t *testing.T, opts Options) *Fixture {
	t.Helper()
	opts = opts.withDefaults()
	dir := t.TempDir()
	f := &Fixture{T: t, opts: opts}
	if !opts.NoJournal {
		f.JournalPath = dir + "/access.molc"
	}
	if !opts.NoCheckpoint {
		f.CheckpointPath = dir + "/molcached.ckpt"
	}
	f.Server = f.start()
	t.Cleanup(func() { f.Server.Close() })
	return f
}

func (f *Fixture) config() server.Config {
	cfg := server.Config{
		Listen:         "127.0.0.1:0",
		Molecular:      f.opts.Molecular,
		Resize:         f.opts.Resize,
		Faults:         f.opts.Faults,
		AddrBits:       f.opts.AddrBits,
		JournalPath:    f.JournalPath,
		CheckpointPath: f.CheckpointPath,
	}
	if f.opts.Obs {
		cfg.ObsListen = "127.0.0.1:0"
	}
	return cfg
}

func (f *Fixture) start() *server.Server {
	f.T.Helper()
	srv, err := server.New(f.config())
	if err != nil {
		f.T.Fatalf("servertest: boot: %v", err)
	}
	return srv
}

// Client dials the fixture's server and registers a cleanup.
func (f *Fixture) Client() *server.Client {
	f.T.Helper()
	c, err := server.Dial(f.Server.Addr())
	if err != nil {
		f.T.Fatalf("servertest: dial: %v", err)
	}
	f.T.Cleanup(func() { c.Close() })
	return c
}

// Reboot closes the running server (its Shutdown writes the checkpoint,
// unless the test already shut it down) and boots a fresh one from the
// same paths, warm or cold.
func (f *Fixture) Reboot() {
	f.T.Helper()
	if err := f.Server.Close(); err != nil {
		f.T.Fatalf("servertest: shutdown: %v", err)
	}
	f.Server = f.start()
}

// Restart reboots the server — the SIGTERM + warm-restore cycle,
// in-process — and fails the test if the new server did not
// warm-restore.
func (f *Fixture) Restart() {
	f.T.Helper()
	if f.CheckpointPath == "" {
		f.T.Fatal("servertest: Restart needs a checkpoint path")
	}
	f.Reboot()
	if !f.Server.WarmStarted() {
		f.T.Fatalf("servertest: expected warm restore, got cold start (restore err: %v)", f.Server.RestoreErr())
	}
}

// WaitHealthy polls the obs /healthz endpoint until it answers 200 or
// the deadline passes (the obs server binds asynchronously fast, but
// smoke callers want a hard guarantee).
func (f *Fixture) WaitHealthy(timeout time.Duration) {
	f.T.Helper()
	u := f.Server.ObsURL()
	if u == "" {
		f.T.Fatal("servertest: WaitHealthy needs Options.Obs")
	}
	deadline := time.Now().Add(timeout)
	for {
		if httpOK(u + "/healthz") {
			return
		}
		if time.Now().After(deadline) {
			f.T.Fatalf("servertest: %s/healthz not healthy within %v", u, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
