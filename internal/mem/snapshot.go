package mem

import "fmt"

// NilRef is the snapshot-table reference of a nil *Request.
const NilRef = int32(-1)

// SnapshotTable collects the live Request objects of a simulation into a
// value table so that a checkpoint can serialize them once and every
// component can refer to them by index. Pointer identity is preserved: two
// references that alias the same object at snapshot time receive the same
// index, so a restored simulation reproduces the aliasing exactly (including
// the deliberate aliasing that arises when a recycled request object is still
// referenced by a stale-but-never-dereferenced holder).
type SnapshotTable struct {
	idx      map[*Request]int32
	Requests []Request
}

// NewSnapshotTable returns an empty table.
func NewSnapshotTable() *SnapshotTable {
	return &SnapshotTable{idx: map[*Request]int32{}}
}

// Ref returns the table index of r, adding its current value to the table on
// first sight. A nil request maps to NilRef.
func (t *SnapshotTable) Ref(r *Request) int32 {
	if r == nil {
		return NilRef
	}
	if i, ok := t.idx[r]; ok {
		return i
	}
	i := int32(len(t.Requests))
	t.idx[r] = i
	t.Requests = append(t.Requests, *r)
	return i
}

// RestoreTable materializes a serialized request table back into live objects:
// one fresh *Request per table entry, handed out by index so that every
// reference restored from the same index aliases the same object.
type RestoreTable struct {
	reqs []*Request
	err  error // the first out-of-range reference Get saw
}

// NewRestoreTable builds live request objects from the serialized values.
func NewRestoreTable(values []Request) *RestoreTable {
	t := &RestoreTable{reqs: make([]*Request, len(values))}
	for i := range values {
		r := values[i]
		t.reqs[i] = &r
	}
	return t
}

// Get resolves a table reference. NilRef yields nil. An out-of-range index
// marks a corrupted checkpoint: Get yields nil and records the first such
// reference for Err, so a restore never panics on bad input.
func (t *RestoreTable) Get(i int32) *Request {
	if i == NilRef {
		return nil
	}
	if i < 0 || int(i) >= len(t.reqs) {
		if t.err == nil {
			t.err = fmt.Errorf("mem: request reference %d outside table of %d entries", i, len(t.reqs))
		}
		return nil
	}
	return t.reqs[i]
}

// Err reports the first out-of-range reference Get resolved, if any. A
// restore is only sound when Err is nil once every component has restored.
func (t *RestoreTable) Err() error { return t.err }

// Len returns the number of table entries.
func (t *RestoreTable) Len() int { return len(t.reqs) }
