package serve

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/shapley"
)

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
// drives the round trip over TLS: /healthz and a scored /rank (bit-exact
// against shapley.Exact). Also pins that a cert without a key refuses to
// start.
func TestServeTLS(t *testing.T) {
	certPath, keyPath := writeSelfSignedCert(t, t.TempDir())

	bad := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueCap: 4,
		TLSCert: certPath}, fixture(t), nil)
	// The cert/key pairing check runs before the listener binds, so a failed
	// Start leaves nothing to shut down.
	if err := bad.Start(); err == nil {
		t.Error("cert without key must refuse to start")
	}

	s := startServer(t, Config{Workers: 2, QueueCap: 64, TLSCert: certPath, TLSKey: keyPath})
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
}
