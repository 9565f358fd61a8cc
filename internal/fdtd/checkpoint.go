package fdtd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/grid"
	"repro/internal/gridio"
)

// Checkpointing.  A long scattering run can be stopped and resumed:
// the checkpoint captures the full solver state — the six field grids,
// the step counter, the probe series, and the far-field accumulators —
// and a resumed run produces results bitwise identical to an
// uninterrupted one.  Checkpoints are written by the host process from
// gathered global state (the archetype's grid-to-host redistribution),
// so the file format is independent of the process count: a run may be
// resumed on a different P than it was saved from.
//
// Format v2 ("FDTDCKP2") hardens the file against the failure modes a
// fault-tolerant runtime must survive:
//
//	magic        [8]byte  "FDTDCKP2"
//	version      uint32   (2)
//	fingerprint  uint64   Spec.Fingerprint() of the saved run
//	sections, each:
//	    tag      [4]byte  "META" | "FLDS" | "VECS"
//	    length   uint64   payload bytes
//	    payload  []byte
//	    crc      uint32   IEEE CRC-32 of the payload
//
// META holds stepsDone, work, and the three vector lengths; FLDS holds
// the six field grids in gridio format; VECS holds the probe series and
// far-field accumulators.  Any bit flip or truncation fails the CRC or
// the section framing and the load is rejected with ErrCorrupt; a spec
// fingerprint mismatch is rejected with ErrSpecMismatch.  The
// unversioned v1 format ("FDTDCKP1": no fingerprint, no checksums) is no
// longer read; such a stream fails the magic check with ErrCorrupt.

const (
	checkpointMagicV2  = "FDTDCKP2"
	checkpointVersion2 = 2
	// maxCheckpointSection caps a section payload, refusing absurd
	// lengths from corrupt files.
	maxCheckpointSection = 1 << 31
)

// ErrCorrupt marks a checkpoint rejected for structural damage: a
// failed section checksum, truncation, or mangled framing.
var ErrCorrupt = errors.New("fdtd: corrupt checkpoint")

// ErrSpecMismatch marks a checkpoint whose spec fingerprint does not
// match the spec it is being resumed under.
var ErrSpecMismatch = errors.New("fdtd: checkpoint spec mismatch")

// Checkpoint is a snapshot of a run after some number of steps: the
// result so far — the state a window ending at step StepsDone produced —
// which is also the state the next window starts from.
type Checkpoint struct {
	Result
	StepsDone int
}

// writeSection frames one checksummed section.
func writeSection(w io.Writer, tag string, payload []byte) error {
	if len(tag) != 4 {
		panic("fdtd: section tag must be 4 bytes")
	}
	if _, err := io.WriteString(w, tag); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload))
}

// readSection reads one section, verifying tag and checksum.
func readSection(r io.Reader, wantTag string) ([]byte, error) {
	tag := make([]byte, 4)
	if _, err := io.ReadFull(r, tag); err != nil {
		return nil, fmt.Errorf("%w: reading %q section tag: %v", ErrCorrupt, wantTag, err)
	}
	if string(tag) != wantTag {
		return nil, fmt.Errorf("%w: section tag %q, want %q", ErrCorrupt, tag, wantTag)
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: reading %q section length: %v", ErrCorrupt, wantTag, err)
	}
	if n > maxCheckpointSection {
		return nil, fmt.Errorf("%w: absurd %q section length %d", ErrCorrupt, wantTag, n)
	}
	// Read what is there rather than allocate what the length claims:
	// a lying length then costs only the bytes the stream holds.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(payload)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %q section truncated: %v", ErrCorrupt, wantTag, err)
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("%w: reading %q section checksum: %v", ErrCorrupt, wantTag, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: %q section checksum mismatch (stored %08x, computed %08x)",
			ErrCorrupt, wantTag, sum, got)
	}
	return payload, nil
}

// Write serialises the checkpoint in format v2.
func (c *Checkpoint) Write(w io.Writer) error {
	if _, err := io.WriteString(w, checkpointMagicV2); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(checkpointVersion2)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, c.Spec.Fingerprint()); err != nil {
		return err
	}

	var meta bytes.Buffer
	head := []int64{
		int64(c.StepsDone), int64(len(c.Probe)), int64(len(c.FarA)), int64(len(c.FarF)),
	}
	if err := binary.Write(&meta, binary.LittleEndian, head); err != nil {
		return err
	}
	if err := binary.Write(&meta, binary.LittleEndian, c.Work); err != nil {
		return err
	}
	if err := writeSection(w, "META", meta.Bytes()); err != nil {
		return err
	}

	var flds bytes.Buffer
	for _, g := range []*grid.G3{c.Ex, c.Ey, c.Ez, c.Hx, c.Hy, c.Hz} {
		if err := gridio.Write3(&flds, g); err != nil {
			return err
		}
	}
	if err := writeSection(w, "FLDS", flds.Bytes()); err != nil {
		return err
	}

	var vecs bytes.Buffer
	for _, vec := range [][]float64{c.Probe, c.FarA, c.FarF} {
		if err := binary.Write(&vecs, binary.LittleEndian, vec); err != nil {
			return err
		}
	}
	return writeSection(w, "VECS", vecs.Bytes())
}

// ReadCheckpoint deserialises a checkpoint written by Write.  The caller supplies the spec (specs
// contain presets chosen in code and are not serialised); the saved
// fingerprint must match it, and grid shapes are validated against it.
func ReadCheckpoint(r io.Reader, spec Spec) (*Checkpoint, error) {
	magic := make([]byte, len(checkpointMagicV2))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic) != checkpointMagicV2 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrCorrupt, err)
	}
	if version != checkpointVersion2 {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorrupt, version)
	}
	var fp uint64
	if err := binary.Read(r, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: reading spec fingerprint: %v", ErrCorrupt, err)
	}
	if want := spec.Fingerprint(); fp != want {
		return nil, fmt.Errorf("%w: checkpoint written for spec %016x, resuming under %016x",
			ErrSpecMismatch, fp, want)
	}

	meta, err := readSection(r, "META")
	if err != nil {
		return nil, err
	}
	mr := bytes.NewReader(meta)
	head := make([]int64, 4)
	if err := binary.Read(mr, binary.LittleEndian, head); err != nil {
		return nil, fmt.Errorf("%w: decoding META: %v", ErrCorrupt, err)
	}
	c := &Checkpoint{Result: Result{Spec: spec}, StepsDone: int(head[0])}
	if c.StepsDone < 0 || c.StepsDone > spec.Steps {
		return nil, fmt.Errorf("fdtd: checkpoint at step %d outside run of %d steps", c.StepsDone, spec.Steps)
	}
	if err := binary.Read(mr, binary.LittleEndian, &c.Work); err != nil {
		return nil, fmt.Errorf("%w: decoding META: %v", ErrCorrupt, err)
	}

	flds, err := readSection(r, "FLDS")
	if err != nil {
		return nil, err
	}
	if err := c.readGrids(bytes.NewReader(flds), spec); err != nil {
		return nil, err
	}

	vecs, err := readSection(r, "VECS")
	if err != nil {
		return nil, err
	}
	if err := c.readVectors(bytes.NewReader(vecs), head[1], head[2], head[3]); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Checkpoint) readGrids(r *bytes.Reader, spec Spec) error {
	for _, gp := range []**grid.G3{&c.Ex, &c.Ey, &c.Ez, &c.Hx, &c.Hy, &c.Hz} {
		g, err := gridio.Read3(r)
		if err != nil {
			return err
		}
		if g.NX() != spec.NX || g.NY() != spec.NY || g.NZ() != spec.NZ {
			return fmt.Errorf("fdtd: checkpoint grid %s does not match spec %dx%dx%d",
				g, spec.NX, spec.NY, spec.NZ)
		}
		*gp = g
	}
	return nil
}

func (c *Checkpoint) readVectors(r *bytes.Reader, nProbe, nFarA, nFarF int64) error {
	for i, n := range []int64{nProbe, nFarA, nFarF} {
		if n < 0 || n > int64(r.Len()/8) {
			return fmt.Errorf("%w: checkpoint vector length %d exceeds the VECS section", ErrCorrupt, n)
		}
		vec := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, vec); err != nil {
			return fmt.Errorf("%w: reading checkpoint vector: %v", ErrCorrupt, err)
		}
		switch i {
		case 0:
			c.Probe = vec
		case 1:
			c.FarA = vec
		case 2:
			c.FarF = vec
		}
	}
	return nil
}

// CheckpointPrevPath returns where SaveCheckpoint retains the previous
// good checkpoint for path.
func CheckpointPrevPath(path string) string { return path + ".prev" }

// SaveCheckpoint writes a checkpoint to path atomically: the bytes go
// to a temporary file in the same directory, are synced to stable
// storage, and only then renamed into place, so an interrupted save can
// never clobber the last good checkpoint.  An existing good file is
// first retained at CheckpointPrevPath(path), giving the loader a
// fallback if the newest file is later found damaged.
func SaveCheckpoint(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any failure from here on must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	w := bufio.NewWriter(tmp)
	if err := c.Write(w); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Retain the previous good checkpoint.  A crash between the two
	// renames leaves only the .prev file; the fallback loader finds it.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, CheckpointPrevPath(path)); err != nil {
			os.Remove(tmpName)
			return err
		}
	}
	return os.Rename(tmpName, path)
}

// LoadCheckpoint reads a checkpoint from a file.
func LoadCheckpoint(path string, spec Spec) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadCheckpoint(bufio.NewReader(f), spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadCheckpointWithFallback loads the checkpoint at path; if that file
// is missing, corrupt, or mismatched, it falls back to the retained
// previous good checkpoint (CheckpointPrevPath).  fellBack reports
// whether the fallback was used.  When both fail, the primary file's
// error is returned.
func LoadCheckpointWithFallback(path string, spec Spec) (c *Checkpoint, fellBack bool, err error) {
	c, err = LoadCheckpoint(path, spec)
	if err == nil {
		return c, false, nil
	}
	prev, perr := LoadCheckpoint(CheckpointPrevPath(path), spec)
	if perr == nil {
		return prev, true, nil
	}
	return nil, false, err
}
