package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"skinnymine"
)

// Batch-vs-sequential serving benchmark: the same eight distinct mining
// requests issued as eight sequential /v1/mine round trips versus one
// /v1/batch call. A fresh server per iteration keeps the result cache
// cold, so both variants do the same mining work; the difference is
// round trips, JSON decoding, and scheduling (the batch's unique misses
// enter the admission gate together). scripts/bench_baseline.sh records
// both in the per-PR bench JSON.

func benchRequests() []string {
	reqs := make([]string, 8)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"length":%d,"delta":1}`, 2+i)
	}
	return reqs
}

func BenchmarkServerSequentialRequests(b *testing.B) {
	ix := buildIndex(b)
	reqs := benchRequests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, ts := newTestServer(b, Config{Index: ix})
		b.StartTimer()
		for _, req := range reqs {
			resp, err := http.Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(req))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		ts.Close() // idempotent under the later t.Cleanup
		b.StartTimer()
	}
}

// BenchmarkBatchFamily is the multi-query optimizer's headline number:
// eight requests forming a single query family (same σ and measure;
// varying band, δ, and anti-monotone constraints), served "shared" as
// one batch to a default server and "independent" as eight /v1/mine
// singles to a cache-less server, which mines each one fresh. A fresh
// server per iteration keeps the cache cold, so "shared" mines the
// weakest superset once and forks the rest. extensions/op (summed from
// the per-request stats; forked bodies honestly report zero) is the
// search-work ratio the wall-clock gain comes from;
// scripts/bench_baseline.sh records both variants in the per-PR bench
// JSON.
func BenchmarkBatchFamily(b *testing.B) {
	family := []string{
		`{"length":4,"min_length":1,"delta":2}`, // weakest: the shared plan's carrier
		`{"length":4,"min_length":1,"delta":2,"where":"vertices<=8"}`,
		`{"length":4,"min_length":1,"delta":2,"where":"edges<=9"}`,
		`{"length":4,"min_length":1,"delta":1}`,
		`{"length":4,"min_length":2,"delta":2}`,
		`{"length":3,"min_length":1,"delta":2}`,
		`{"length":4,"min_length":1,"delta":2,"where":"skinniness<=1"}`,
		`{"length":4,"min_length":1,"delta":2,"where":"vertices<=8 && edges<=9"}`,
	}
	batch := `{"requests":[` + strings.Join(family, ",") + `]}`
	// post sends one request and returns its raw response body.
	post := func(b *testing.B, url, body string) []byte {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
		return raw
	}
	for _, mode := range []struct {
		name string
		cfg  Config
		// serve answers the family on a fresh server and returns each
		// member's ResultJSON body, with the timer stopped on return.
		serve func(b *testing.B, url string) []json.RawMessage
	}{
		{"shared", Config{}, func(b *testing.B, url string) []json.RawMessage {
			raw := post(b, url+"/v1/batch", batch)
			b.StopTimer()
			var br BatchResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				b.Fatal(err)
			}
			out := make([]json.RawMessage, len(br.Results))
			for j, item := range br.Results {
				if item.Status != http.StatusOK {
					b.Fatalf("entry %d: status %d: %s", j, item.Status, item.Error)
				}
				out[j] = item.Result
			}
			return out
		}},
		{"independent", Config{CacheSize: -1}, func(b *testing.B, url string) []json.RawMessage {
			out := make([]json.RawMessage, len(family))
			for j, body := range family {
				out[j] = post(b, url+"/v1/mine", body)
			}
			b.StopTimer()
			return out
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ix := buildIndex(b)
			var extensions int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := mode.cfg
				cfg.Index = ix
				_, ts := newTestServer(b, cfg)
				b.StartTimer()
				bodies := mode.serve(b, ts.URL)
				for _, body := range bodies {
					var res skinnymine.ResultJSON
					if err := json.Unmarshal(body, &res); err != nil {
						b.Fatal(err)
					}
					extensions += int64(res.Stats.ExtensionsTried)
				}
				ts.Close() // idempotent under the later t.Cleanup
				b.StartTimer()
			}
			b.ReportMetric(float64(extensions)/float64(b.N), "extensions/op")
		})
	}
}

func BenchmarkServerBatchRequests(b *testing.B) {
	ix := buildIndex(b)
	body := `{"requests":[` + strings.Join(benchRequests(), ",") + `]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, ts := newTestServer(b, Config{Index: ix})
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		b.StopTimer()
		ts.Close() // idempotent under the later t.Cleanup
		b.StartTimer()
	}
}
