package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	key := KeyOf("cell-a")
	payload := []byte(`{"answer":42}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mangled: %q", got)
	}
	if n, err := s.Count(); err != nil || n != 1 {
		t.Errorf("Count=%d err=%v, want 1", n, err)
	}
}

func TestGetMiss(t *testing.T) {
	s := openT(t)
	if _, ok, err := s.Get(KeyOf("never-written")); ok || err != nil {
		t.Fatalf("miss reported ok=%v err=%v", ok, err)
	}
}

func TestKeyOfStableAndDistinct(t *testing.T) {
	if KeyOf("a") != KeyOf("a") {
		t.Error("KeyOf not deterministic")
	}
	if KeyOf("a") == KeyOf("b") {
		t.Error("distinct fingerprints collided")
	}
	if len(KeyOf("a")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(KeyOf("a")))
	}
}

func TestOverwriteIsAtomicReplace(t *testing.T) {
	s := openT(t)
	key := KeyOf("cell")
	if err := s.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(key)
	if !ok || string(got) != "v2" {
		t.Errorf("got %q ok=%v", got, ok)
	}
	if n, _ := s.Count(); n != 1 {
		t.Errorf("Count=%d after overwrite", n)
	}
}

func TestUnwritableDirRejectedAtOpen(t *testing.T) {
	// A path under a regular file can never become a directory.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "store")); err == nil {
		t.Fatal("Open under a regular file should fail")
	}
}

// corruptKinds plants each corruption the envelope must catch and
// asserts: miss (not error), quarantine counter, entry moved aside, and
// a subsequent recompute+Put+Get succeeding.
func TestCorruptEntriesQuarantineAndRecover(t *testing.T) {
	payload := []byte(`{"v":1}`)
	kinds := map[string]func(raw []byte) []byte{
		"torn":      func(raw []byte) []byte { return raw[:len(raw)/2] },
		"short":     func(raw []byte) []byte { return raw[:3] },
		"bitflip":   func(raw []byte) []byte { raw[len(raw)-1] ^= 0x10; return raw },
		"badmagic":  func(raw []byte) []byte { raw[0] = 'X'; return raw },
		"badlength": func(raw []byte) []byte { raw[15] ^= 0xFF; return raw },
	}
	for name, corrupt := range kinds {
		t.Run(name, func(t *testing.T) {
			s := openT(t)
			key := KeyOf("cell-" + name)
			if err := s.putRaw(key, corrupt(encodeEntry(payload))); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get(key); ok || err != nil {
				t.Fatalf("corrupt entry: ok=%v err=%v, want miss", ok, err)
			}
			if s.Quarantined() != 1 {
				t.Errorf("Quarantined=%d, want 1", s.Quarantined())
			}
			if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, key+entrySuffix)); err != nil {
				t.Errorf("quarantined file missing: %v", err)
			}
			// Recompute path: a fresh Put replaces the quarantined entry.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Errorf("recompute Put/Get failed: ok=%v err=%v got=%q", ok, err, got)
			}
		})
	}
}

func TestWriteOnlyNeverReplays(t *testing.T) {
	s := openT(t)
	w := WriteOnly(s)
	key := KeyOf("cell")
	if err := w.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := w.Get(key); ok {
		t.Error("WriteOnly replayed an entry")
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Error("WriteOnly did not persist through to the inner store")
	}
}

// TestFaultyAllPathsFire drives enough writes through a Faulty store to
// exercise every injection path, then proves the durable subset replays
// intact and every corrupt entry quarantines as a miss.
func TestFaultyAllPathsFire(t *testing.T) {
	s := openT(t)
	f := NewFaulty(s, 7, FaultRates{WriteFail: 0.2, TornWrite: 0.2, BitFlip: 0.2})
	const n = 200
	payloads := make(map[string][]byte, n)
	failed := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		key := KeyOf(fmt.Sprintf("cell-%d", i))
		payload := []byte(fmt.Sprintf(`{"cell":%d}`, i))
		payloads[key] = payload
		if err := f.Put(key, payload); err != nil {
			failed[key] = true
		}
	}
	if f.Fails.Load() == 0 || f.Torn.Load() == 0 || f.Flips.Load() == 0 {
		t.Fatalf("injection paths silent: fails=%d torn=%d flips=%d",
			f.Fails.Load(), f.Torn.Load(), f.Flips.Load())
	}
	clean, corrupt := 0, 0
	for key, want := range payloads {
		got, ok, err := f.Get(key)
		if err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
		switch {
		case ok:
			clean++
			if !bytes.Equal(got, want) {
				t.Errorf("entry %s replayed wrong payload %q", key, got)
			}
		case failed[key]:
			// Write never happened; miss is correct.
		default:
			corrupt++ // torn/flipped: quarantined miss
		}
	}
	if clean == 0 || corrupt == 0 {
		t.Errorf("coverage hole: clean=%d corrupt=%d", clean, corrupt)
	}
	if q := s.Quarantined(); q != corrupt {
		t.Errorf("Quarantined=%d, corrupt misses=%d", q, corrupt)
	}
	if q, want := s.Quarantined(), int(f.Torn.Load()+f.Flips.Load()); q != want {
		t.Errorf("Quarantined=%d, injected corruptions=%d", q, want)
	}
}

func TestFaultyReadErrorPath(t *testing.T) {
	s := openT(t)
	key := KeyOf("cell")
	if err := s.Put(key, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(s, 1, FaultRates{ReadError: 1})
	if _, ok, err := f.Get(key); ok || err != ErrInjectedRead {
		t.Fatalf("Get = ok=%v err=%v, want injected read error", ok, err)
	}
	if f.ReadErrs.Load() == 0 {
		t.Fatal("ReadErrs counter silent")
	}
}

func TestFaultyStaleReadPath(t *testing.T) {
	s := openT(t)
	key := KeyOf("cell")
	payload := []byte(`{"a":1}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(s, 1, FaultRates{StaleRead: 1})
	// A stale read is a spurious miss: no error, no data — the caller
	// recomputes. The entry itself is untouched.
	if data, ok, err := f.Get(key); ok || err != nil || data != nil {
		t.Fatalf("stale Get = %q ok=%v err=%v, want clean miss", data, ok, err)
	}
	if f.Stales.Load() == 0 {
		t.Fatal("Stales counter silent")
	}
	if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("underlying entry damaged by stale read: %q ok=%v err=%v", got, ok, err)
	}
}

func TestFaultyTornReadPath(t *testing.T) {
	s := openT(t)
	key := KeyOf("cell")
	payload := []byte(`{"answer":42,"padding":"xxxxxxxxxxxxxxxx"}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(s, 1, FaultRates{TornRead: 1})
	data, ok, err := f.Get(key)
	if err != nil || !ok {
		t.Fatalf("torn Get: ok=%v err=%v", ok, err)
	}
	if len(data) >= len(payload) {
		t.Fatalf("torn read returned %d bytes, want a strict prefix of %d", len(data), len(payload))
	}
	if !bytes.Equal(data, payload[:len(data)]) {
		t.Fatalf("torn read is not a prefix: %q", data)
	}
	if f.TornReads.Load() == 0 {
		t.Fatal("TornReads counter silent")
	}
	// A torn read on a miss stays a miss (nothing to tear).
	if _, ok, err := f.Get(KeyOf("absent")); ok || err != nil {
		t.Fatalf("torn read invented an entry: ok=%v err=%v", ok, err)
	}
}

func TestFaultyReadPathsDegradeToRecompute(t *testing.T) {
	// The consumer contract: every read-side fault must look like either a
	// miss or a decode failure — degradation to recompute, never a wrong
	// payload delivered as truth. JSON truncation is detectable because
	// the payload no longer parses; that is what the fabric coordinator's
	// Validate hook and the engine's strict decode both check.
	s := openT(t)
	f := NewFaulty(s, 99, FaultRates{ReadError: 0.2, StaleRead: 0.2, TornRead: 0.2})
	const n = 100
	for i := 0; i < n; i++ {
		key := KeyOf(fmt.Sprintf("cell-%d", i))
		if err := f.Put(key, []byte(fmt.Sprintf(`{"cell":%d,"pad":"xxxxxxxx"}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	intact := 0
	for i := 0; i < n; i++ {
		key := KeyOf(fmt.Sprintf("cell-%d", i))
		data, ok, err := f.Get(key)
		switch {
		case err != nil:
			// Injected I/O failure: recompute.
		case !ok:
			// Stale miss: recompute.
		case bytes.Equal(data, []byte(fmt.Sprintf(`{"cell":%d,"pad":"xxxxxxxx"}`, i))):
			intact++
		default:
			// Torn: must fail strict decoding, never parse as valid JSON.
			var v map[string]any
			if jsonValid(data, &v) {
				t.Fatalf("torn payload %q still parses — undetectable corruption", data)
			}
		}
	}
	if intact == 0 {
		t.Fatal("no clean reads at 60% fault mass — rates miswired")
	}
	if f.ReadErrs.Load() == 0 || f.Stales.Load() == 0 || f.TornReads.Load() == 0 {
		t.Fatalf("read fault paths silent: err=%d stale=%d torn=%d",
			f.ReadErrs.Load(), f.Stales.Load(), f.TornReads.Load())
	}
}

// jsonValid reports whether data strictly decodes into v.
func jsonValid(data []byte, v any) bool {
	return json.Unmarshal(data, v) == nil
}

// FuzzDecodeEntry holds the on-disk envelope codec to its contract: the
// decoder never panics on arbitrary bytes, every payload survives an
// encode/decode round trip, and any entry the decoder accepts is exactly
// the encoding of the payload it returns (no two envelopes decode alike).
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry([]byte(`{"answer":42}`)))
	f.Add(encodeEntry(nil))
	f.Add([]byte(entryMagic))
	torn := encodeEntry([]byte(`{"Workload":"gcc","Refs":20000}`))
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, raw []byte) {
		if got, err := decodeEntry(encodeEntry(raw)); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("round trip of %q: got %q, err %v", raw, got, err)
		}
		payload, err := decodeEntry(raw)
		if err != nil {
			return
		}
		if re := encodeEntry(payload); !bytes.Equal(re, raw) {
			t.Fatalf("accepted entry %q re-encodes to %q", raw, re)
		}
	})
}
