package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the content-addressed artifact store: the bytes of each
// entry kind (the canonical result payload, its execution receipt)
// keyed by config.RunIdentity hash. Every kind is filed and read the
// same way: O(1) lookups in memory and, with a directory configured,
// one file per entry (<hash>.<kind>, atomic temp+rename) written
// through on Put and read back on a memory miss, so a restarted daemon
// serves its old results and receipts as cache hits. No trace is
// stored: /trace derives it again from the run identity.
//
// Entries are immutable: a key is the hash of everything that determines
// the payload (including the code revision), so a Put never changes an
// existing entry's meaning and the store needs no invalidation.
type Store struct {
	mu      sync.Mutex
	mem     map[entryID][]byte
	tallies map[string]tally // by kind
	dir     string           // "" disables persistence
}

// entryID names one entry. A struct, not "<key>.<kind>", so a lookup
// builds no string.
type entryID struct{ key, kind string }

// tally counts the in-memory entries of one kind and the bytes they hold.
type tally struct {
	n     int
	bytes int64
}

// Entry kinds, each the file suffix of its entries on disk
// ("<hash>.<kind>"): the canonical result payload and the canonical
// receipt JSON. Trace logs that earlier daemons filed beside them
// ("trace.pack", "trace.v2.pack") are never read.
const (
	KindResult  = "json"
	KindReceipt = "receipt.json"
)

// NewStore returns a store, creating the persistence directory if one
// is given.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: cache dir: %w", err)
		}
	}
	return &Store{mem: make(map[entryID][]byte), tallies: make(map[string]tally), dir: dir}, nil
}

// Get returns the entry of one kind stored under key, consulting the
// persistence directory on a memory miss.
func (st *Store) Get(key, kind string) ([]byte, bool) {
	id := entryID{key, kind}
	st.mu.Lock()
	payload, ok := st.mem[id]
	st.mu.Unlock()
	if ok {
		return payload, true
	}
	if st.dir == "" || !validKey(key) || !validKind(kind) {
		return nil, false
	}
	payload, err := os.ReadFile(filepath.Join(st.dir, key+"."+kind))
	if err != nil {
		return nil, false
	}
	st.mu.Lock()
	st.setLocked(id, payload)
	st.mu.Unlock()
	return payload, true
}

// Put stores an entry of one kind under key. The memory copy always
// succeeds for a known kind; a persistence error is returned for
// logging but does not un-store the entry.
func (st *Store) Put(key, kind string, payload []byte) error {
	if !validKind(kind) {
		return fmt.Errorf("server: unknown store entry kind %q", kind)
	}
	st.mu.Lock()
	st.setLocked(entryID{key, kind}, payload)
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("server: refusing to persist invalid key %q", key)
	}
	name := key + "." + kind
	tmp, err := os.CreateTemp(st.dir, "."+name+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(payload)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return os.Rename(tmp.Name(), filepath.Join(st.dir, name))
}

// setLocked files an entry in memory, keeping its kind's tally in step
// when it replaces one. Caller holds st.mu.
func (st *Store) setLocked(id entryID, payload []byte) {
	old, replaced := st.mem[id]
	t := st.tallies[id.kind]
	if !replaced {
		t.n++
	}
	t.bytes += int64(len(payload) - len(old))
	st.tallies[id.kind] = t
	st.mem[id] = payload
}

// Bytes returns the bytes the in-memory entries of one kind hold.
func (st *Store) Bytes(kind string) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tallies[kind].bytes
}

// Len returns the number of in-memory results (entries of KindResult).
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tallies[KindResult].n
}

func validKind(kind string) bool {
	return kind == KindResult || kind == KindReceipt
}

// validKey accepts exactly the lowercase-hex shape RunIdentity.Hash
// produces, keeping arbitrary request strings out of filesystem paths.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}
