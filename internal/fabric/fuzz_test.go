package fabric

import (
	"bytes"
	"encoding/json"
	"testing"
)

// protocolBodies makes one empty value of every lease-protocol body: the
// grant, renew and complete requests and responses.
func protocolBodies() []any {
	return []any{
		&GrantRequest{}, &GrantResponse{},
		&RenewRequest{}, &RenewResponse{},
		&CompleteRequest{}, &CompleteResponse{},
	}
}

// FuzzFabricBodies decodes arbitrary bytes as every lease-protocol body
// through decodeBody, the parser the coordinator and the client share. It
// must never panic, and every body it accepts must round-trip: the
// re-encoded value decodes again and re-encodes to the same bytes.
func FuzzFabricBodies(f *testing.F) {
	for _, seed := range []string{
		`{"worker":"w1","stats":{"refs_total":12,"cells_done":1,"cells_failed":0,"uptime_s":3.5}}`,
		`{"lease":{"key":"k","spec":{"workload":"gcc","scheme":"tps","refs":1000,"seed":42,"memory_pages":4096,"threshold":0.5,"frag":true},"generation":3,"ttl_ms":5000,"trace":"t","span":"s"},"done":false,"wait_ms":20}`,
		`{"done":true}`,
		`{"worker":"w1","key":"k","generation":3,"stats":{"refs_total":0,"cells_done":0,"cells_failed":0,"uptime_s":0}}`,
		`{"ok":true}`,
		`{"worker":"w1","key":"k","generation":3,"result":{"Refs":5, "MMU":{}},"spans":[{"trace":"t","id":"a","kind":"attempt","name":"gcc/tps","start_ns":1,"end_ns":2}]}`,
		`{"worker":"w1","key":"k","generation":1,"error":"boom","spans":[]}`,
		`{"accepted":true,"duplicate":false}`,
		`{"worker":"w1","bogus":1}`,
		`{"result":null}`,
		`{"worker":"\xffé"} trailing`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, body := range protocolBodies() {
			if decodeBody(bytes.NewReader(data), body) != nil {
				continue
			}
			enc, err := json.Marshal(body)
			if err != nil {
				t.Fatalf("body %d: accepted %q but cannot re-encode it: %v", i, data, err)
			}
			again := protocolBodies()[i]
			if err := decodeBody(bytes.NewReader(enc), again); err != nil {
				t.Fatalf("body %d: re-encoded %q does not decode: %v", i, enc, err)
			}
			enc2, err := json.Marshal(again)
			if err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("body %d: round trip of %q re-encodes %q, then %q (%v)", i, data, enc, enc2, err)
			}
		}
	})
}
