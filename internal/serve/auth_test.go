package serve

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// TestServeAdminAuth pins the /admin/* bearer-token contract: with
// Config.AdminToken set, missing or wrong tokens are rejected with 401 (plus
// a WWW-Authenticate challenge and a serve.req.unauthorized count) before the
// handler runs, a correct token reaches the handler, the scoring endpoints
// stay open — auth guards administration, not service — and the open
// /debug/manifest, whose args list the command line, never shows the token.
func TestServeAdminAuth(t *testing.T) {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"serve", "-admin-token", "tiny-secret", "-admin-token=tiny-secret", "-quiet"}
	run := obs.NewRun("admin-auth-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := startServer(t, Config{
		Workers: 1, QueueCap: 4, AdminToken: "tiny-secret",
	})

	reload := func(auth string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(ReloadRequest{Path: "/nonexistent.gob"})
		req := httptest.NewRequest(http.MethodPost, "/admin/reload", bytes.NewReader(body))
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	if rec := reload(""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("no token -> %d, want 401", rec.Code)
	} else if rec.Header().Get("WWW-Authenticate") == "" {
		t.Error("401 without a WWW-Authenticate challenge")
	}
	if rec := reload("Bearer wrong-secret"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("wrong token -> %d, want 401", rec.Code)
	}
	if rec := reload("Basic dGlueS1zZWNyZXQ="); rec.Code != http.StatusUnauthorized {
		t.Fatalf("non-bearer scheme -> %d, want 401", rec.Code)
	}
	// The right token must clear auth and reach the handler: the missing
	// checkpoint then fails inside handleReload with 400.
	if rec := reload("Bearer tiny-secret"); rec.Code != http.StatusBadRequest {
		t.Fatalf("correct token, missing checkpoint -> %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if got := run.Reg.Snapshot().Counters["serve.req.unauthorized"]; got != 3 {
		t.Errorf("serve.req.unauthorized = %d, want 3", got)
	}

	// The manifest stays open but redacts the token in both flag forms; the
	// -metrics-out file is written from the same run.Manifest.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/manifest", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("tokenless /debug/manifest -> %d, want 200", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "tiny-secret") {
		t.Errorf("/debug/manifest leaks the admin token: %s", rec.Body.String())
	}
	want := []string{"-admin-token", "<redacted>", "-admin-token=<redacted>", "-quiet"}
	if args := run.Manifest().Args; strings.Join(args, " ") != strings.Join(want, " ") {
		t.Errorf("manifest args = %q, want %q", args, want)
	}

	// Scoring endpoints stay open without a token: a tokenless /rank against
	// the running server must score normally — auth guards administration,
	// not service.
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if _, code, err := postRank(client, s.URL(), cases[0].body); err != nil || code != http.StatusOK {
		t.Errorf("tokenless /rank -> code %d err %v, want 200 (only /admin/* is guarded)", code, err)
	}
}

// writeSelfSignedCert generates a throwaway ECDSA certificate for
// 127.0.0.1 and writes PEM cert/key files into dir.
func writeSelfSignedCert(t *testing.T, dir string) (certPath, keyPath string) {
	t.Helper()
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "serve-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "cert.pem")
	keyPath = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certPath, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certPath, keyPath
}

// TestServeTLS starts the daemon on HTTPS with a self-signed certificate and
// drives the full round trip over TLS: /healthz, a scored /rank (bit-exact
// against shapley.Exact), and a tokened /admin round trip — the deployment
// shape the bearer token is meant for. Also pins that a cert without a key
// refuses to start.
func TestServeTLS(t *testing.T) {
	corpus, model := fixture(t)
	certPath, keyPath := writeSelfSignedCert(t, t.TempDir())

	bad := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueCap: 4,
		TLSCert: certPath}, corpus, model)
	// The cert/key pairing check runs before the listener binds, so a failed
	// Start leaves nothing to shut down.
	if err := bad.Start(); err == nil {
		t.Error("cert without key must refuse to start")
	}

	s := startServer(t, Config{
		Workers: 2, QueueCap: 64,
		AdminToken: "tls-secret", TLSCert: certPath, TLSKey: keyPath,
	})
	if !strings.HasPrefix(s.URL(), "https://") {
		t.Fatalf("TLS server URL = %q, want https scheme", s.URL())
	}
	client := &http.Client{Transport: &http.Transport{TLSClientConfig: insecureTLSFor(s.URL())}}
	defer client.CloseIdleConnections()

	resp, err := client.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatalf("healthz over TLS: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TLS -> %d", resp.StatusCode)
	}

	cases, err := selfTestCases(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want, _, err := shapley.Exact(c.prov)
		if err != nil {
			t.Fatal(err)
		}
		rr, code, err := postRank(client, s.URL(), c.body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("rank over TLS: code %d err %v", code, err)
		}
		if rr.Engine != engineExact || len(rr.Facts) != len(want) {
			t.Fatalf("rank over TLS: engine %q with %d facts, want %q with %d", rr.Engine, len(rr.Facts), engineExact, len(want))
		}
		for _, f := range rr.Facts {
			if got, ref := f.Score, want[relation.FactID(f.ID)]; got != ref {
				t.Fatalf("fact %d over TLS: %v != exact %v", f.ID, got, ref)
			}
		}
	}

	// Admin over TLS: unauthorized without the bearer token, past auth with it.
	req, _ := http.NewRequest(http.MethodPost, s.URL()+"/admin/reload", strings.NewReader(`{"path":"/nope.gob"}`))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless admin over TLS -> %d, want 401", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, s.URL()+"/admin/reload", strings.NewReader(`{"path":"/nope.gob"}`))
	req.Header.Set("Authorization", "Bearer tls-secret")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		t.Fatal("correct bearer token rejected over TLS")
	}
}
