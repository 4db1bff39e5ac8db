package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestOriginBumpEndpoint(t *testing.T) {
	o := NewOrigin(1024)
	if err := o.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := o.Close(); err != nil {
			t.Errorf("origin close: %v", err)
		}
	})
	client := &http.Client{Timeout: 5 * time.Second}

	// Bump twice: version should advance past the initial 1.
	for i := 0; i < 2; i++ {
		resp, err := client.Post(o.URL()+"/bump?url=http://x/y", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bump status %d", resp.StatusCode)
		}
		if i == 1 && strings.TrimSpace(string(body)) != "3" {
			t.Errorf("second bump returned %q, want 3", body)
		}
	}
	// The object now serves version 3.
	resp, err := client.Get(o.URL() + "/obj?url=http://x/y")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Object-Version"); got != "3" {
		t.Errorf("version header = %q, want 3", got)
	}

	// Parameter validation.
	resp, err = client.Post(o.URL()+"/bump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bump without url got %d, want 400", resp.StatusCode)
	}
	resp, err = client.Get(o.URL() + "/bump?url=z")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /bump got %d, want 405", resp.StatusCode)
	}
	resp, err = client.Get(o.URL() + "/obj")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /obj without url got %d, want 400", resp.StatusCode)
	}
}

func TestNodeIdentity(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{})
	n := f.Nodes[0]
	if n.machineID == 0 {
		t.Error("zero machine ID")
	}
	if n.machineID == f.Nodes[1].machineID {
		t.Error("nodes share a machine ID")
	}
	if n.Addr() == "" || !strings.Contains(n.URL(), n.Addr()) {
		t.Errorf("addr/url inconsistent: %q / %q", n.Addr(), n.URL())
	}
	// The hint table's counters reflect activity after a fetch.
	if _, err := f.Fetch(0, "http://example.com/id"); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if _, err := f.Fetch(1, "http://example.com/id"); err != nil {
		t.Fatal(err)
	}
	if st := f.Nodes[1].hints.Stats(); st.Lookups == 0 {
		t.Errorf("hint stats empty after traffic: %+v", st)
	}
}

// TestOriginErrorPageIsNotDrained: the origin is the one upstream outside
// the fleet, so a non-200 answer of any length must cost a token drain, not
// a read to the end (or to originTimeout) on the miss path.
func TestOriginErrorPageIsNotDrained(t *testing.T) {
	stop := make(chan struct{})
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		page := bytes.Repeat([]byte("error "), 1<<10)
		for {
			select {
			case <-stop:
				return
			case <-r.Context().Done():
				return
			default:
			}
			if _, err := w.Write(page); err != nil {
				return
			}
		}
	}))
	t.Cleanup(endless.Close)
	t.Cleanup(func() { close(stop) })
	shorten(t, &originTimeout, 5*time.Second)
	n := newMetaNode(t, NodeConfig{Name: "drain", OriginURL: endless.URL})

	ctx, cancel := context.WithTimeout(context.Background(), originTimeout)
	defer cancel()
	start := time.Now()
	_, err := n.fetchOrigin(ctx, "http://example.com/broken")
	if err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("fetch from a failing origin = %v, want a status 500 error", err)
	}
	if took := time.Since(start); took > originTimeout/5 {
		t.Errorf("fetch read an endless error page for %v, want well under originTimeout %v", took, originTimeout)
	}
}
