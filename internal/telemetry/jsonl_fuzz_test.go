package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"tps/internal/telemetry"
	"tps/internal/telemetry/series"
	"tps/internal/telemetry/span"
)

// lineParsers are the strict one-line decoders of the three JSONL streams
// a run writes: events, spans and series records.
var lineParsers = []struct {
	name  string
	parse func([]byte) (any, error)
}{
	{"event", func(b []byte) (any, error) { return telemetry.ParseEvent(b) }},
	{"span", func(b []byte) (any, error) { return span.ParseSpan(b) }},
	{"record", func(b []byte) (any, error) { return series.ParseRecord(b) }},
}

// FuzzJSONLRecords feeds arbitrary bytes to every line parser. None may
// panic; whatever one accepts must re-marshal to a line that parses to an
// equal value; and an accepted line is exactly one JSON value, with only
// whitespace after it.
func FuzzJSONLRecords(f *testing.F) {
	event := `{"t_ns":8,"event":"finished","cell":"abc999","workload":"gups","setup":"TPS","worker":3,"dur_ns":99999,"counters":{"refs":1048576,"l1_hits":9,"l1_misses":8,"l2_hits":7,"l2_misses":6,"walk_mem_refs":5,"alias_extras":4}}`
	sp := `{"trace":"t1","id":"a1","parent":"c1","kind":"attempt","name":"gups/tps","worker":"w-2","gen":4,"start_ns":420,"end_ns":800,"outcome":"failed","error":"boom"}`
	rec := `{"workload":"gups","scheme":"tps","seed":1,"epoch":1,"every":100,"refs":200,"delta":{"refs":100,"accesses":90},"promos_by_order":[0,1],"census":[3]}`
	for _, seed := range []string{
		event, sp, rec,
		`{"t_ns":1,"event":"queued","cell":"x","worker":-1}`,
		event + "\n",
		event + ` {"bogus":1}`,
		sp + " garbage",
		rec + rec,
		`{"t_ns":1,"event":"queued","cell":"x","worker":-1,"bogus":true}`,
		`{"trace":"t","kind":"run","name":"n","start_ns":1,"end_ns":2}`,
		`{"scheme":"tps"}`,
		`{"cell":"\xffé","event":"x"}`,
		`not json`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range lineParsers {
			v, err := p.parse(data)
			if err != nil {
				continue
			}
			if !json.Valid(bytes.TrimSpace(data)) {
				t.Fatalf("%s: accepted %q, which is not one JSON value", p.name, data)
			}
			line, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: accepted %q but cannot re-marshal it: %v", p.name, data, err)
			}
			again, err := p.parse(line)
			if err != nil {
				t.Fatalf("%s: re-marshaled %q does not parse: %v", p.name, line, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%s: %q parsed to %+v, its re-marshaled line to %+v", p.name, data, v, again)
			}
		}
	})
}
