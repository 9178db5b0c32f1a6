package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBootNodeSilentChildIsBounded boots a child that starts, complains on
// stderr and then prints nothing — a node whose port is taken under
// -log-level error, a wedged listener — in place of the node: the boot must
// fail inside its banner deadline, carrying the child's stderr, instead of
// blocking on a read that never returns.
func TestBootNodeSilentChildIsBounded(t *testing.T) {
	stub := filepath.Join(t.TempDir(), "silent-node")
	script := "#!/bin/sh\necho 'listen tcp 127.0.0.1:7001: bind: address already in use' >&2\nexec sleep 30\n"
	if err := os.WriteFile(stub, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	const bannerTimeout = 200 * time.Millisecond
	start := time.Now()
	node, err := bootNode(bannerTimeout, stub, "-id", "bench")
	if err == nil {
		node.Stop()
		t.Fatal("bootNode succeeded against a child that printed no banner")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("bootNode took %v against a %v banner deadline", took, bannerTimeout)
	}
	for _, want := range []string{"no node banner within", "address already in use"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
