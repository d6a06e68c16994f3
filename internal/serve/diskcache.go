package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// The disk-backed result cache persists the content-addressed store across
// restarts: one file per SHA-256 key under <data-dir>/cache/, each carrying
// a checksummed header so a torn or bit-rotted file is detected on read and
// quarantined — a corrupt entry is never served. Writes are crash-safe by
// construction (temp file, fsync, atomic rename), and the in-memory LRU
// index — rebuilt lazily from file sizes and mtimes on startup, without
// reading any payload — evicts on disk by the same entry/byte bounds as the
// memory cache.
//
// File layout: 8-byte magic, 8-byte big-endian payload length, 32-byte
// SHA-256 of the payload, payload. The key itself is the content address of
// the request; the embedded hash covers the stored response, so both halves
// of the mapping are integrity-checked.

const (
	diskMagic   = "SRVRES1\n"
	diskEntExt  = ".res"
	diskTmpExt  = ".tmp"
	diskBadExt  = ".corrupt"
	diskHdrSize = 8 + 8 + sha256.Size
)

type diskCache struct {
	dir        string
	maxEntries int
	maxBytes   int64

	tmpSeq atomic.Uint64 // numbers put's temp files, so concurrent puts never share one

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	index map[string]*list.Element
	bytes int64

	hits, evictions, corrupt *obs.Counter
}

type diskEntry struct {
	key  string
	size int64 // payload bytes (header excluded, matching the memory gauge)
}

// openDiskCache creates dir if needed and indexes the existing entries by
// name, size and mtime — payloads are validated lazily, on first get.
// Leftover temp files from a crashed write are removed; quarantined
// (.corrupt) files are left for inspection. Entries beyond the bounds are
// evicted oldest-first immediately, so a shrunk config takes effect on
// startup.
func openDiskCache(dir string, maxEntries int, maxBytes int64, hits, evictions, corrupt *obs.Counter) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk cache: %w", err)
	}
	c := &diskCache{
		dir: dir, maxEntries: maxEntries, maxBytes: maxBytes,
		ll: list.New(), index: map[string]*list.Element{},
		hits: hits, evictions: evictions, corrupt: corrupt,
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: disk cache: %w", err)
	}
	type aged struct {
		key   string
		size  int64
		mtime int64
	}
	var found []aged
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, diskTmpExt):
			os.Remove(filepath.Join(dir, name)) // torn write; never completed
		case strings.HasSuffix(name, diskEntExt):
			key := strings.TrimSuffix(name, diskEntExt)
			if !validKey(key) {
				continue
			}
			info, err := ent.Info()
			if err != nil {
				continue
			}
			size := info.Size() - diskHdrSize
			if size < 0 {
				// Too short to even hold a header: quarantine now.
				c.quarantineFile(key)
				continue
			}
			found = append(found, aged{key, size, info.ModTime().UnixNano()})
		}
	}
	// Oldest first: they land at the LRU end and are evicted first.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, a := range found {
		c.index[a.key] = c.ll.PushFront(&diskEntry{key: a.key, size: a.size})
		c.bytes += a.size
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// validKey accepts exactly the 64-hex SHA-256 content addresses the server
// issues; anything else in the directory is not ours to touch.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *diskCache) path(key string) string {
	return filepath.Join(c.dir, key+diskEntExt)
}

// get reads and verifies the entry. Any mismatch — bad magic, short file,
// length or checksum disagreement — quarantines the file (renamed to
// .corrupt) and reports a miss: a torn cache file is never served.
func (c *diskCache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.dropLocked(el, false)
		return nil, false
	}
	data, ok := decodeEntry(raw)
	if !ok {
		c.quarantineFile(key)
		c.dropLocked(el, false)
		c.corrupt.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return data, true
}

// decodeEntry validates the header and returns the payload.
func decodeEntry(raw []byte) ([]byte, bool) {
	if len(raw) < diskHdrSize || string(raw[:8]) != diskMagic {
		return nil, false
	}
	n := binary.BigEndian.Uint64(raw[8:16])
	payload := raw[diskHdrSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(raw[16:16+sha256.Size]) {
		return nil, false
	}
	return payload, true
}

// put stores data under key crash-safely: header+payload into a temp file,
// fsync, rename. The serve.cache.write kill site splits the payload write
// around the death, so a chaos kill mid-write leaves only a temp file —
// cleaned on the next startup, invisible to readers.
//
// The fsyncs run outside the index lock, so a lookup never waits on
// another request's disk flushes. Each put writes its own numbered temp
// file; only the rename and the index update take the lock.
func (c *diskCache) put(key string, data []byte) {
	if c == nil || int64(len(data)) > c.maxBytes || !validKey(key) {
		return
	}
	hdr := make([]byte, diskHdrSize)
	copy(hdr, diskMagic)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(data)))
	sum := sha256.Sum256(data)
	copy(hdr[16:], sum[:])

	tmp := filepath.Join(c.dir, key+"."+strconv.FormatUint(c.tmpSeq.Add(1), 10)+diskTmpExt)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	write := func() error {
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		if faultinject.CrashArmed("serve.cache.write") {
			half := len(data) / 2
			if _, err := f.Write(data[:half]); err != nil {
				return err
			}
			f.Sync()
			faultinject.Crash("serve.cache.write")
			_, err := f.Write(data[half:])
			return err
		}
		_, err := f.Write(data)
		return err
	}
	if err := write(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if c.publish(key, tmp, int64(len(data))) {
		syncDir(c.dir)
	}
}

// publish renames a synced temp file into place and indexes it. Rename and
// index update share the lock, so concurrent puts of one key leave the
// index describing the file that won.
func (c *diskCache) publish(key, tmp string, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return false
	}
	if el, ok := c.index[key]; ok {
		// Overwrite: adjust the byte account by the size delta.
		e := el.Value.(*diskEntry)
		c.bytes += size - e.size
		e.size = size
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(&diskEntry{key: key, size: size})
		c.bytes += size
	}
	c.evictLocked()
	return true
}

// evictLocked deletes least-recently-used entry files until both bounds
// hold.
func (c *diskCache) evictLocked() {
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		last := c.ll.Back()
		if last == nil {
			return
		}
		c.dropLocked(last, true)
		c.evictions.Inc()
	}
}

// dropLocked removes an entry from the index and, when remove is set, its
// file from disk.
func (c *diskCache) dropLocked(el *list.Element, remove bool) {
	e := el.Value.(*diskEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.size
	if remove {
		os.Remove(c.path(e.key))
	}
}

// quarantineFile renames a failed-validation entry to .corrupt so it is
// preserved for inspection but never reconsidered.
func (c *diskCache) quarantineFile(key string) {
	os.Rename(c.path(key), filepath.Join(c.dir, key+diskBadExt))
}

// stats reports the indexed entry count and payload byte total.
func (c *diskCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}
