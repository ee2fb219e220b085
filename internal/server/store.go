package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the content-addressed result store: canonical result payload
// bytes keyed by config.RunIdentity hash. Lookups are O(1) in memory;
// with a directory configured, payloads are written through to one file
// per key (<hash>.json, atomic temp+rename) and read back on a memory
// miss, so a restarted daemon serves its old results as cache hits.
//
// Entries are immutable: a key is the hash of everything that determines
// the payload (including the code revision), so a Put never changes an
// existing entry's meaning and the store needs no invalidation.
type Store struct {
	mu  sync.Mutex
	mem map[string][]byte
	// aux holds auxiliary artifacts stored beside a result (execution
	// receipts, observability traces), keyed "<hash>.<kind>". They are
	// content-derived like the results they annotate, so the same
	// immutability argument applies. Not counted by Len; auxBytes sums
	// the in-memory bytes by kind.
	aux      map[string][]byte
	auxBytes map[string]int64
	dir      string // "" disables persistence
}

// Auxiliary artifact kinds stored beside a result (the file suffix on
// disk: "<hash>.<kind>"): the canonical receipt JSON, and the receipt's
// trace as the gate's packed log (obs.UnpackJSONL expands it).
const (
	AuxReceipt   = "receipt.json"
	AuxTracePack = "trace.pack"
)

// NewStore returns a store, creating the persistence directory if one
// is given.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: cache dir: %w", err)
		}
	}
	return &Store{mem: make(map[string][]byte), aux: make(map[string][]byte),
		auxBytes: make(map[string]int64), dir: dir}, nil
}

// Get returns the payload stored under key, consulting the persistence
// directory on a memory miss.
func (st *Store) Get(key string) ([]byte, bool) {
	st.mu.Lock()
	payload, ok := st.mem[key]
	st.mu.Unlock()
	if ok {
		return payload, true
	}
	if st.dir == "" || !validKey(key) {
		return nil, false
	}
	payload, err := os.ReadFile(filepath.Join(st.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	st.mu.Lock()
	st.mem[key] = payload
	st.mu.Unlock()
	return payload, true
}

// Put stores a payload. The memory copy always succeeds; a persistence
// error is returned for logging but does not un-store the entry.
func (st *Store) Put(key string, payload []byte) error {
	st.mu.Lock()
	st.mem[key] = payload
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("server: refusing to persist invalid key %q", key)
	}
	tmp, err := os.CreateTemp(st.dir, "."+key+".tmp-*")
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
	return os.Rename(tmp.Name(), filepath.Join(st.dir, key+".json"))
}

// GetAux returns an auxiliary artifact stored beside key, consulting
// the persistence directory on a memory miss.
func (st *Store) GetAux(key, kind string) ([]byte, bool) {
	name := key + "." + kind
	st.mu.Lock()
	payload, ok := st.aux[name]
	st.mu.Unlock()
	if ok {
		return payload, true
	}
	if st.dir == "" || !validKey(key) || !validAuxKind(kind) {
		return nil, false
	}
	payload, err := os.ReadFile(filepath.Join(st.dir, name))
	if err != nil {
		return nil, false
	}
	st.mu.Lock()
	st.setAuxLocked(name, kind, payload)
	st.mu.Unlock()
	return payload, true
}

// PutAux stores an auxiliary artifact beside key, with the same
// semantics as Put (memory always, write-through when persistent).
func (st *Store) PutAux(key, kind string, payload []byte) error {
	if !validAuxKind(kind) {
		return fmt.Errorf("server: unknown aux kind %q", kind)
	}
	name := key + "." + kind
	st.mu.Lock()
	st.setAuxLocked(name, kind, payload)
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("server: refusing to persist invalid key %q", key)
	}
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

// setAuxLocked files an aux entry in memory, keeping auxBytes in step
// when it replaces one. Caller holds st.mu.
func (st *Store) setAuxLocked(name, kind string, payload []byte) {
	st.auxBytes[kind] += int64(len(payload) - len(st.aux[name]))
	st.aux[name] = payload
}

// AuxBytes returns the bytes the in-memory aux entries of one kind hold.
func (st *Store) AuxBytes(kind string) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.auxBytes[kind]
}

func validAuxKind(kind string) bool {
	return kind == AuxReceipt || kind == AuxTracePack
}

// Len returns the number of in-memory entries.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.mem)
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
