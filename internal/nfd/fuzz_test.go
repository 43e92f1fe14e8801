package nfd_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"enetstl/internal/nfd"
	"enetstl/internal/runtime"
)

// answerable lists the statuses a fuzzed request may draw. 409 is not
// among them: it means the module is draining or deleted, and neither
// target deletes a module while posting to it.
var answerable = map[int]bool{
	http.StatusOK: true, http.StatusCreated: true, http.StatusBadRequest: true,
	http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// trailing reports whether body holds one JSON value followed by
// anything but whitespace.
func trailing(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	_, err := dec.Token()
	return err != io.EOF
}

// FuzzCreateRequest feeds arbitrary bytes to POST /modules on a fresh
// daemon: the handler never panics, answers with one of the documented
// statuses, refuses a body with data after its JSON value with a 400,
// and anything but a 201 leaves the registry empty — no
// partially-created module.
func FuzzCreateRequest(f *testing.F) {
	for _, body := range []string{
		`{"name": "cuckooswitch", "flavor": "ebpf", "trace": {"flows": 64, "packets": 300, "seed": 3}}`,
		`{"name": "nosuch", "flavor": "kernel"}`,
		`{"name": "skiplist", "flavor": "ebpf"}`,
		`{"name": "bloom", "flavor": "turbo"}`,
		`{"name": "bloom", "flavor": "kernel", "options": {"tier": "turbo"}}`,
		`{"name": "bloom", "flavor": "ebpf", "options": {"tier": "fast"}}`,
		`{"name": "bloom", "flavor": "kernel", "nope": 1}`,
		`{"name": "bloom", "flavor": "kernel", "options": {"quota": {"rpool_cap": -1}}}`,
		`{"name": "conntrack", "flavor": "ebpf", "options": {"map_impl": "flat"}}`,
		`{"name": "cmsketch", "flavor": "kernel", "options": {"stats": true}, "trace": {"flows": 32, "packets": 100, "seed": 5}}`,
		`{"name": "cmsketch", "flavor": "enetstl", "options": {"quota": {"insn_budget": 1}}, "trace": {"flows": 64, "packets": 500, "seed": 7}}`,
		`{"name": "conntrack", "flavor": "kernel", "options": {"quota": {"map_bytes": 64}}}`,
		`{"name": "cmsketch", "flavor": "enetstl", "options": {"tier": "jit"}, "trace": {"flows": 64, "packets": 800, "seed": 11}}`,
		`{"name": "conntrack", "flavor": "kernel", "options": {"shards": 4, "percpu": true, "stats": true}, "trace": {"flows": 128, "packets": 1000, "seed": 9}}`,
		`{"name": "heavykeeper", "flavor": "enetstl", "options": {"quota": {"rpool_cap": 8}}}`,
		`{"name": "cmsketch", "flavor": "kernel", "options": {"trace": {"capacity": 256, "sample_rate": 0.05}, "guard": {"enabled": true, "auto_budget": 64}}}`,
		`{"name": "cmsketch", "flavor": "kernel"} trailing`,
		`{"name": "bloom", "flavor": "kernel", "trace": {"flows": 9999999999}}`,
		`{"name": "bloom", "flavor": "kernel", "options": {"shards": 65}}`,
		`{"name": "bloom", "flavor": "kernel", "options": {"trace": {"capacity": 1073741824}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := nfd.NewServer()
		defer srv.Registry.Close()
		rec := post(srv.Handler(), "/modules", body)
		if !answerable[rec.Code] {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if trailing(body) && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for a body with data after its JSON value: %s", rec.Code, rec.Body)
		}
		mods := srv.Registry.List()
		if rec.Code == http.StatusCreated {
			var st nfd.Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("201 with a body that is not a Status: %v: %s", err, rec.Body)
			}
			if len(mods) != 1 || mods[0].ID != st.ID {
				t.Fatalf("201 for module %q but the registry lists %+v", st.ID, mods)
			}
		} else if len(mods) != 0 {
			t.Fatalf("status %d left a module behind: %+v", rec.Code, mods)
		}
	})
}

// FuzzIngestBody feeds arbitrary bytes to POST /modules/{id}/packets of
// one freshly created module: the handler never panics, answers with
// one of the documented statuses, and a 400 or 413 leaves the module's
// packet counter where it was.
func FuzzIngestBody(f *testing.F) {
	raw := func(sizes ...int) []byte {
		spec := runtime.TraceSpec{}
		for i, n := range sizes {
			spec.Raw = append(spec.Raw, base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{byte(i + 1)}, n)))
		}
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add([]byte(`{"flows": 64, "packets": 300, "seed": 3}`))
	f.Add([]byte(`{"flows": 64, "packets": 2000, "zipf": 1.1, "seed": 11}`))
	f.Add([]byte(`{"packets": 10}`))
	f.Add([]byte(`{"flows": 16, "packets": 50, "scenario": "churn"}`))
	f.Add([]byte(`{"flows": 16, "packets": 50, "scenario": "nosuch"}`))
	f.Add([]byte(`{"flows": 16, "packets": 50, "nope": 1}`))
	f.Add(raw(64, 64, 64))
	f.Add(raw(64, 63))
	f.Add(bytes.Replace(raw(64, 64), []byte("Ag"), []byte("!g"), 1)) // bad base64 in packet 1
	f.Add([]byte(`{"flows": 16, "packets": 9999999999}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := nfd.NewServer()
		defer srv.Registry.Close()
		m, err := srv.Registry.Create(nfd.CreateRequest{Name: "cuckooswitch", Flavor: "ebpf"})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(srv.Handler(), "/modules/"+m.ID+"/packets", body)
		if !answerable[rec.Code] || rec.Code == http.StatusCreated {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		refused := rec.Code == http.StatusBadRequest || rec.Code == http.StatusRequestEntityTooLarge
		if got := m.Status().Packets; refused && got != 0 {
			t.Fatalf("status %d moved the packet counter to %d", rec.Code, got)
		}
	})
}
