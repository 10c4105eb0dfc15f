package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// Checkpoint layout under DataDir:
//
//	<data>/<tenant>/<name>.g<gen>.ckpt  wire-v2 container (sketch,
//	                                    sharded, or windowed checkpoint)
//	                                    for generation <gen>
//	<data>/<tenant>/<name>.json         sidecar — the client-facing Spec
//	                                    plus the crash-consistency
//	                                    envelope: which generation is
//	                                    current, its SHA-256, and the
//	                                    previous pair to fall back to
//
// Every file is written to a temp name in the same directory, fsynced,
// and renamed into place, with the directory synced after the rename —
// so the pair survives not just a reader racing a writer but a power
// cut mid-checkpoint. The container for a new generation lands under a
// brand-new name *before* the sidecar starts pointing at it; a crash
// between the two renames leaves the sidecar referencing the previous,
// fully-written pair. The checksum closes the remaining hole: a
// sidecar that does point at a generation whose container is missing
// or torn falls back to the previous generation at boot. Legacy
// pre-generation checkpoints (<name>.ckpt, plain-Spec sidecar) are
// still readable and upgrade on their next checkpoint pass.
//
// Tenant and sketch names are validated to [A-Za-z0-9_-]{1,64}, so
// they are safe as path components by construction.

// sidecarDoc is the on-disk .json document. Spec embeds so legacy
// sidecars — a bare Spec — unmarshal with zero Gen and empty Sum,
// which readContainer treats as the unversioned layout.
type sidecarDoc struct {
	Spec
	Gen     uint64 `json:"gen,omitempty"`
	Sum     string `json:"sum,omitempty"`
	PrevGen uint64 `json:"prev_gen,omitempty"`
	PrevSum string `json:"prev_sum,omitempty"`

	// Backend is read, never written: older builds recorded a plain
	// sketch's counter layout here, "dense" or "compressed". Every
	// sketch is dense now, and a compressed one restored as dense would
	// silently stop being insert-only, so its sidecar fails the boot.
	Backend string `json:"backend,omitempty"`
}

// containerPath names the container file of one generation; generation
// zero is the legacy unversioned layout.
func containerPath(base string, gen uint64) string {
	if gen == 0 {
		return base + ".ckpt"
	}
	return fmt.Sprintf("%s.g%d.ckpt", base, gen)
}

// writeEntry checkpoints one sketch crash-consistently: the container
// for the next generation first, then the sidecar that makes it
// current (still naming the previous pair as fallback), then a
// best-effort prune of generations the sidecar no longer references.
// The container is staged in memory so the handle's checkpoint lock is
// held for the encode only, not the disk writes.
func writeEntry(dir string, e *entry) error {
	var buf bytes.Buffer
	if err := e.h.checkpoint(&buf); err != nil {
		return err
	}
	tdir := filepath.Join(dir, e.tenant)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(tdir, e.name)
	gen := e.gen + 1
	sum := sha256.Sum256(buf.Bytes())
	cur := hex.EncodeToString(sum[:])
	if err := writeAtomic(containerPath(base, gen), buf.Bytes()); err != nil {
		return err
	}
	doc, err := json.Marshal(sidecarDoc{
		Spec: e.spec, Gen: gen, Sum: cur, PrevGen: e.gen, PrevSum: e.sum,
	})
	if err != nil {
		return err
	}
	if err := writeAtomic(base+".json", doc); err != nil {
		return err
	}
	pruneContainers(tdir, e.name, gen, e.gen)
	e.gen, e.sum = gen, cur
	return nil
}

// pruneContainers removes container files of generations the sidecar
// no longer references — everything but keep and prev. Best effort:
// a leftover file costs disk, never correctness (boot only opens what
// the sidecar names).
func pruneContainers(tdir, name string, keep, prev uint64) {
	files, err := os.ReadDir(tdir)
	if err != nil {
		return
	}
	for _, f := range files {
		rest, ok := strings.CutPrefix(f.Name(), name+".")
		if !ok {
			continue
		}
		var gen uint64
		if rest != "ckpt" { // "ckpt" alone is the legacy generation 0
			if _, err := fmt.Sscanf(rest, "g%d.ckpt", &gen); err != nil || containerPath(name, gen) != name+"."+rest {
				continue
			}
		}
		if gen == keep || gen == prev {
			continue
		}
		os.Remove(filepath.Join(tdir, f.Name()))
	}
}

// syncFile and syncDir are the durability syscalls behind writeAtomic,
// indirected so tests can fault-inject a failing fsync.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			d.Close()
			return err
		}
		return d.Close()
	}
)

// writeAtomic writes data to path durably: temp file in the same
// directory, fsync, rename, then fsync of the directory so the rename
// itself survives a power cut. Without the file sync the rename could
// publish a name whose bytes were never forced to disk — the classic
// zero-length-file-after-crash bug; without the directory sync the
// rename may simply not be there after a crash.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// loadAll restores every checkpointed sketch under dir into reg. A
// missing directory is a fresh start. Each sidecar names its sketch;
// the newest consistent container is restored through the facade, so
// the rebuilt handle answers bit-identically to the one that wrote it.
func loadAll(dir string, reg *registry) error {
	tenants, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, td := range tenants {
		if !td.IsDir() || !validName(td.Name()) {
			continue
		}
		tenant := td.Name()
		files, err := os.ReadDir(filepath.Join(dir, tenant))
		if err != nil {
			return err
		}
		for _, f := range files {
			name, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok || !validName(name) {
				continue
			}
			e, err := loadEntry(dir, tenant, name)
			if err != nil {
				return fmt.Errorf("restore %s/%s: %w", tenant, name, err)
			}
			if !reg.put(e, false) {
				return fmt.Errorf("restore %s/%s: duplicate registration", tenant, name)
			}
		}
	}
	return nil
}

// loadEntry restores one sketch from its sidecar + container pair,
// falling back to the previous generation when the current one is
// missing or fails its checksum (the crash window between the two
// checkpoint renames, or torn container bytes).
func loadEntry(dir, tenant, name string) (*entry, error) {
	base := filepath.Join(dir, tenant, name)
	raw, err := os.ReadFile(base + ".json")
	if err != nil {
		return nil, err
	}
	var doc sidecarDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Backend != "" && doc.Backend != "dense" {
		return nil, fmt.Errorf("%w: the sidecar names the %q counter layout, which this build cannot restore; remove the sketch's files and create it again",
			ErrBadSpec, doc.Backend)
	}
	data, gen, sum, err := readContainer(base, doc)
	if err != nil {
		return nil, err
	}
	h, err := restoreHandle(doc.Spec, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &entry{tenant: tenant, name: name, spec: doc.Spec, h: h, gen: gen, sum: sum}, nil
}

// readContainer picks the newest consistent container the sidecar
// names. Legacy sidecars (no generation envelope) read the unversioned
// container unverified — there is no recorded checksum to hold it to.
func readContainer(base string, doc sidecarDoc) ([]byte, uint64, string, error) {
	if doc.Gen == 0 && doc.Sum == "" {
		data, err := os.ReadFile(containerPath(base, 0))
		return data, 0, "", err
	}
	data, curErr := verifyContainer(containerPath(base, doc.Gen), doc.Sum)
	if curErr == nil {
		return data, doc.Gen, doc.Sum, nil
	}
	prev, prevErr := verifyContainer(containerPath(base, doc.PrevGen), doc.PrevSum)
	if prevErr != nil {
		return nil, 0, "", fmt.Errorf("generation %d unusable (%w); generation %d fallback unusable (%w)",
			doc.Gen, curErr, doc.PrevGen, prevErr)
	}
	return prev, doc.PrevGen, doc.PrevSum, nil
}

// verifyContainer reads a container file and holds it to the sidecar's
// recorded checksum. An empty wantSum is the legacy generation, which
// predates checksums and is accepted as read.
func verifyContainer(path, wantSum string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if wantSum != "" {
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != wantSum {
			return nil, fmt.Errorf("container %s fails its recorded checksum", filepath.Base(path))
		}
	}
	return data, nil
}

// restoreHandle rebuilds the serving handle a checkpoint container
// holds, dispatching on the sidecar's kind.
func restoreHandle(spec Spec, r io.Reader) (handle, error) {
	switch spec.Kind {
	case "sharded":
		sh, err := repro.RestoreSharded(r)
		if err != nil {
			return nil, err
		}
		return &shardedHandle{s: sh}, nil
	case "windowed":
		wd, err := repro.RestoreWindowed(r)
		if err != nil {
			return nil, err
		}
		return &windowedHandle{w: wd}, nil
	case "plain":
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		sk, err := repro.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return &plainHandle{sk: sk}, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %q in checkpoint sidecar", ErrBadSpec, spec.Kind)
}
