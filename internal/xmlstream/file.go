package xmlstream

import (
	"io"
	"os"
)

// Doc is a whole document held in memory for the zero-copy scan path,
// memory-mapped when the platform supports it and read outright otherwise. Close unmaps/releases the bytes; no Scanner over the document
// may be used afterwards.
type Doc struct {
	data   []byte
	mapped bool
}

// OpenFile opens path for scanning. On platforms with mmap support the file
// is mapped read-only, so scanning touches pages straight from the page
// cache with no read syscalls and no copy; elsewhere (or if mapping fails)
// the file is read into memory.
func OpenFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if size := st.Size(); size > 0 && st.Mode().IsRegular() && int64(int(size)) == size {
		if data, merr := mmapFile(f, int(size)); merr == nil {
			return &Doc{data: data, mapped: true}, nil
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return &Doc{data: data}, nil
}

// Data returns the document bytes. The slice is valid until Close; it must
// not be mutated.
func (d *Doc) Data() []byte { return d.data }

// Len returns the document size in bytes.
func (d *Doc) Len() int { return len(d.data) }

// Mapped reports whether the document is memory-mapped rather than heap-held.
func (d *Doc) Mapped() bool { return d.mapped }

// Close releases the document bytes. Any Scanner still
// reading them must be done first.
func (d *Doc) Close() error {
	data, mapped := d.data, d.mapped
	d.data, d.mapped = nil, false
	if mapped {
		return munmapFile(data)
	}
	return nil
}
