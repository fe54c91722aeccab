package atlasapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynaddr/internal/stream"
)

// FuzzNDJSONBatch posts arbitrary bodies as NDJSON envelope batches to a
// LiveServer over an in-memory ingester. Whatever the body, the server
// must not panic and must answer 200 or 4xx. On 200 every non-blank line
// is either accepted or quarantined, and the ingester's dead-letter
// queue holds exactly the quarantined ones; on 4xx it holds no more
// than the consumed prefix reported in the error envelope.
func FuzzNDJSONBatch(f *testing.F) {
	t0, t1 := int64(liveHour(0)), int64(liveHour(24))
	for _, body := range []string{
		`{"kind":"meta","probe":7,"country":"DE","version":3,"connected_days":200}`,
		fmt.Sprintf(`{"kind":"connlog","probe":7,"start":%d,"end":%d,"addr":"10.0.0.1"}`, t0, t1),
		fmt.Sprintf(`{"kind":"connlog","probe":7,"start":%d,"end":%d,"addr":"2001:db8::1"}`, t0, t1),
		fmt.Sprintf(`{"kind":"kroot","probe":7,"timestamp":%d,"sent":3,"success":3,"lts":12}`, t0),
		fmt.Sprintf(`{"kind":"uptime","probe":7,"timestamp":%d,"uptime":60}`, t0),
		`{"kind":"uptime","probe":7,`,
		`{"kind":"bogus","probe":7}`,
		fmt.Sprintf(`{"kind":"connlog","probe":7,"start":%d,"end":%d,"addr":"10.0.0.1"}`, t1, t0),
		fmt.Sprintf(`{"kind":"kroot","probe":7,"timestamp":%d,"sent":1,"success":5}`, t0),
		"\n  \n\t\r\n",
		"",
		fmt.Sprintf("{\"kind\":\"meta\",\"probe\":8,\"version\":3}\n\n{\"kind\":\"bogus\"}\r\n{\"kind\":\"uptime\",\"probe\":8,\"timestamp\":%d,\"uptime\":5}", t0),
		fmt.Sprintf(`{"kind":"kroot","probe":7,"timestamp":%d,"sent":70000,"success":1,"lts":2147483648}`, t0),
		"{\"kind\":\"kroot\",\"probe\":7,\"timestamp\":4294967295,\"sent\":3,\"success\":3,\"lts\":12}\n{\"kind\":\"kroot\",\"probe\":7,\"timestamp\":4294967296,\"sent\":3,\"success\":3,\"lts\":12}",
		"{\"kind\":\"connlog\",\"probe\":7,\"start\":-1,\"end\":5,\"addr\":\"10.0.0.1\"}\n{\"kind\":\"connlog\",\"probe\":7,\"start\":0,\"end\":0,\"addr\":\"10.0.0.1\"}\n" +
			"{\"kind\":\"connlog\",\"probe\":7,\"start\":4294967295,\"end\":4294967295,\"addr\":\"2001:db8::1\"}\n{\"kind\":\"connlog\",\"probe\":7,\"start\":5,\"end\":4294967296,\"addr\":\"10.0.0.1\"}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: liveStore(t)})
		defer ing.Close()
		srv := NewLiveServer(ing, WithErrorLog(nil))

		req := httptest.NewRequest(http.MethodPost, RouteStreamRecords, bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeNDJSON)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		ing.Snapshot() // barrier: quarantined records ride the shard channel
		dead := ing.DeadLetter().Total
		switch {
		case rec.Code == http.StatusOK:
			var got struct{ Accepted, Quarantined int }
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("200 body %q: %v", rec.Body, err)
			}
			lines := 0
			for _, line := range bytes.Split(body, []byte("\n")) {
				if len(bytes.TrimSpace(line)) > 0 {
					lines++
				}
			}
			if got.Accepted+got.Quarantined != lines {
				t.Fatalf("accepted %d + quarantined %d != %d non-blank lines", got.Accepted, got.Quarantined, lines)
			}
			if dead != int64(got.Quarantined) {
				t.Fatalf("dead letters %d, quarantined %d", dead, got.Quarantined)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%d body %q: %v", rec.Code, rec.Body, err)
			}
			if dead > int64(env.Accepted) {
				t.Fatalf("dead letters %d beyond the consumed prefix %d", dead, env.Accepted)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
