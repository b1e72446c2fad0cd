// Package diskfaults is the write-path analogue of internal/faults: a
// seeded, injectable shim over the file operations the durable layers go
// through — checkpoint saves, the serving verdict log, the corpus disk
// cache, and the small durable state files — so crash-and-disk-fault
// resilience can be exercised deterministically. Armed rules produce short
// (torn) writes, ENOSPC, EIO, failed fsync, and crash-points at configured
// write sites; the un-armed path is a nil-pointer check, so production runs
// pay nothing.
//
// Every write site names itself (SiteCheckpoint, SiteVerdictLog, ...) and
// routes its file operations through the process-wide injector: wrap the
// file with File, rename with Rename, or use WriteFileAtomic for the full
// temp+fsync+rename+dirsync discipline. Injected faults are counted under
// perspectron_diskfault_injected_total{site,op,kind}.
package diskfaults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"perspectron/internal/telemetry"
)

// Canonical site names for the repository's durable write paths. Rules may
// name any site; these constants just keep the call sites and fault specs in
// agreement.
const (
	SiteCheckpoint  = "checkpoint"  // model checkpoint saves (checkpoint.go)
	SiteVerdictLog  = "verdictlog"  // the serving JSONL verdict log
	SiteCorpus      = "corpus"      // the corpus disk cache artifacts
	SiteServeState  = "servestate"  // the supervisor's durable accounting file
	SiteShadowState = "shadowstate" // the shadow trainer's tail-offset file
)

// Op identifies one write-path operation a rule can intercept.
type Op string

const (
	OpCreate Op = "create" // temp-file creation
	OpWrite  Op = "write"  // a data write
	OpSync   Op = "sync"   // fsync of a file or its parent directory
	OpRename Op = "rename" // the atomic publish rename
)

// Kind identifies the fault an intercepted operation suffers.
type Kind string

const (
	// KindTorn writes a prefix of the payload and then fails with ENOSPC —
	// the torn-write model (only meaningful on OpWrite).
	KindTorn Kind = "torn"
	// KindENOSPC fails the operation with syscall.ENOSPC, nothing written.
	KindENOSPC Kind = "enospc"
	// KindEIO fails the operation with syscall.EIO, nothing written.
	KindEIO Kind = "eio"
	// KindSyncFail lets the data through but fails the fsync with EIO
	// (only meaningful on OpSync).
	KindSyncFail Kind = "syncfail"
	// KindCrash writes a torn prefix (on OpWrite) and then invokes the
	// injector's crash function — by default os.Exit(137), simulating a
	// power-loss mid-write. Tests override the crash function.
	KindCrash Kind = "crash"
)

// Rule arms one fault. The zero After/Count/Rate values give the common
// deterministic form: fire on every matching operation, forever.
type Rule struct {
	// Site the rule applies to; "" matches every site.
	Site string
	// Op the rule intercepts.
	Op Op
	// Kind of fault to inject.
	Kind Kind
	// After skips the first After matching operations before firing — "the
	// Nth write fails" is After: N-1.
	After int
	// Count caps how many times the rule fires; 0 means unlimited (the
	// persistent-ENOSPC model).
	Count int
	// Rate, when non-zero, fires probabilistically with this per-operation
	// probability (drawn from the injector's seeded generator) instead of
	// deterministically.
	Rate float64
}

// armed is a rule plus its firing state.
type armed struct {
	Rule
	seen  int
	fired int
}

// Injector decides, per (site, op), whether an armed fault fires. Safe for
// concurrent use. The nil *Injector is the disabled injector: every wrapper
// method passes straight through to the os package.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rules   []*armed
	crashFn func()
}

// New returns an injector whose probabilistic draws come from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		crashFn: func() { os.Exit(137) },
	}
}

// Arm adds one rule. Rules are consulted in arming order; the first one that
// fires wins for a given operation.
func (in *Injector) Arm(r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = append(in.rules, &armed{Rule: r})
	in.mu.Unlock()
}

// decide reports the fault kind (if any) for one operation at site, and
// counts the injection.
func (in *Injector) decide(site string, op Op) (Kind, bool) {
	if in == nil {
		return "", false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != op || (r.Site != "" && r.Site != site) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Rate > 0 && in.rng.Float64() >= r.Rate {
			continue
		}
		r.fired++
		telemetry.Get().Counter(telemetry.Name("perspectron_diskfault_injected_total",
			"site", site, "op", string(op), "kind", string(r.Kind))).Inc()
		return r.Kind, true
	}
	return "", false
}

// crash runs the configured crash action.
func (in *Injector) crash() {
	in.mu.Lock()
	fn := in.crashFn
	in.mu.Unlock()
	fn()
}

// faultErr maps a kind to its operation error.
func faultErr(k Kind) error {
	switch k {
	case KindEIO, KindSyncFail:
		return syscall.EIO
	default:
		return syscall.ENOSPC
	}
}

// File is a fault-wrapped *os.File restricted to the operations the durable
// write paths use. A nil-injector File passes everything through.
type File struct {
	in   *Injector
	site string
	f    *os.File
}

// File wraps f so armed write/sync faults at site apply to it.
func (in *Injector) File(site string, f *os.File) *File {
	return &File{in: in, site: site, f: f}
}

// Write implements io.Writer with torn-write, ENOSPC, EIO and crash faults.
func (w *File) Write(p []byte) (int, error) {
	if kind, ok := w.in.decide(w.site, OpWrite); ok {
		switch kind {
		case KindTorn:
			n, _ := w.f.Write(p[:len(p)/2])
			return n, syscall.ENOSPC
		case KindCrash:
			w.f.Write(p[:len(p)/2])
			w.f.Sync() // the torn prefix reaches disk, as a real power cut could leave it
			w.in.crash()
			return 0, syscall.EIO // unreachable with the default crashFn
		default:
			return 0, faultErr(kind)
		}
	}
	return w.f.Write(p)
}

// Sync fsyncs the file, honoring syncfail/crash faults.
func (w *File) Sync() error {
	if kind, ok := w.in.decide(w.site, OpSync); ok {
		if kind == KindCrash {
			w.in.crash()
		}
		return faultErr(kind)
	}
	return w.f.Sync()
}

// Close closes the underlying file (never faulted — a close that "fails"
// after successful writes models nothing the recovery layer cares about).
func (w *File) Close() error { return w.f.Close() }

// Name returns the underlying file's path.
func (w *File) Name() string { return w.f.Name() }

// Rename renames old to new, honoring rename faults at site. A crash fault
// fires before the rename, modeling death between write and publish.
func (in *Injector) Rename(site, oldpath, newpath string) error {
	if kind, ok := in.decide(site, OpRename); ok {
		if kind == KindCrash {
			in.crash()
		}
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: faultErr(kind)}
	}
	return os.Rename(oldpath, newpath)
}

// SyncDir fsyncs a directory so a just-renamed entry survives power loss.
// Platforms where directories cannot be opened or synced degrade to a no-op;
// an armed sync fault at site still fires.
func (in *Injector) SyncDir(site, dir string) error {
	if kind, ok := in.decide(site, OpSync); ok {
		if kind == KindCrash {
			in.crash()
		}
		return faultErr(kind)
	}
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

// isSyncUnsupported reports fsync errors that mean "this filesystem cannot
// sync directories", which durability-wise is the best the platform offers.
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EBADF)
}

// WriteFileAtomic writes path under the full durable discipline — temp file
// in path's directory, data fsync, rename, parent-directory fsync — with
// every step routed through site's armed faults. A failure at any step
// leaves path untouched and removes the temp file.
func (in *Injector) WriteFileAtomic(site, path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	if kind, ok := in.decide(site, OpCreate); ok {
		if kind == KindCrash {
			in.crash()
		}
		return &os.PathError{Op: "create", Path: path, Err: faultErr(kind)}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	ff := in.File(site, tmp)
	err = write(ff)
	if serr := ff.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := in.Rename(site, tmp.Name(), path); err != nil {
		return err
	}
	return in.SyncDir(site, dir)
}

// ---- process-wide injector ---------------------------------------------

// global is the process-wide injector; nil until Enable, which leaves every
// disk operation uninjected.
var global atomic.Pointer[Injector]

// Enable installs (or returns the already-installed) process-wide injector.
func Enable(seed int64) *Injector {
	if in := global.Load(); in != nil {
		return in
	}
	in := New(seed)
	if global.CompareAndSwap(nil, in) {
		return in
	}
	return global.Load()
}

// Disable removes the process-wide injector; wrappers revert to passthrough.
func Disable() { global.Store(nil) }

// Default returns the process-wide injector, or nil when disabled. All
// methods tolerate the nil result, so call sites read naturally:
// diskfaults.Default().Rename(site, a, b).
func Default() *Injector { return global.Load() }

// WrapFile wraps f with the process-wide injector's faults for site.
func WrapFile(site string, f *os.File) *File { return Default().File(site, f) }

// Rename renames through the process-wide injector.
func Rename(site, oldpath, newpath string) error {
	return Default().Rename(site, oldpath, newpath)
}

// SyncDir syncs a directory through the process-wide injector.
func SyncDir(site, dir string) error { return Default().SyncDir(site, dir) }

// WriteFileAtomic writes atomically through the process-wide injector.
func WriteFileAtomic(site, path string, write func(w io.Writer) error) error {
	return Default().WriteFileAtomic(site, path, write)
}

// ---- spec parsing -------------------------------------------------------

// ParseSpec parses a comma-separated fault specification, one rule per
// clause:
//
//	site:op:kind[:after=N][:count=N][:rate=F]
//
// e.g. "verdictlog:write:enospc:after=20:count=3,checkpoint:sync:syncfail".
// Site "*" (or empty) matches every site. This is the -disk-faults CLI
// grammar.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("diskfaults: clause %q needs site:op:kind", clause)
		}
		r := Rule{Site: parts[0], Op: Op(parts[1]), Kind: Kind(parts[2])}
		if r.Site == "*" {
			r.Site = ""
		}
		switch r.Op {
		case OpCreate, OpWrite, OpSync, OpRename:
		default:
			return nil, fmt.Errorf("diskfaults: unknown op %q in %q", parts[1], clause)
		}
		switch r.Kind {
		case KindTorn, KindENOSPC, KindEIO, KindSyncFail, KindCrash:
		default:
			return nil, fmt.Errorf("diskfaults: unknown kind %q in %q", parts[2], clause)
		}
		for _, opt := range parts[3:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("diskfaults: option %q in %q is not key=value", opt, clause)
			}
			switch k {
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("diskfaults: bad after=%q in %q", v, clause)
				}
				r.After = n
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("diskfaults: bad count=%q in %q", v, clause)
				}
				r.Count = n
			case "rate":
				f, err := strconv.ParseFloat(v, 64)
				// Written so NaN, which fails every comparison, is rejected.
				if err != nil || !(f >= 0 && f <= 1) {
					return nil, fmt.Errorf("diskfaults: bad rate=%q in %q", v, clause)
				}
				r.Rate = f
			default:
				return nil, fmt.Errorf("diskfaults: unknown option %q in %q", k, clause)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("diskfaults: empty fault spec")
	}
	return rules, nil
}

// ArmSpec parses spec and arms every rule on in.
func ArmSpec(in *Injector, spec string) error {
	rules, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	for _, r := range rules {
		in.Arm(r)
	}
	return nil
}
