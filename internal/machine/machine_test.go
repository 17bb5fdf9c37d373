package machine

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, spec := range Presets() {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
}

func TestX52SmallMatchesTable1(t *testing.T) {
	s := X52Small()
	if s.Sockets != 2 || s.CoresPerSocket != 8 || s.ThreadsPerCore != 2 {
		t.Fatalf("topology mismatch: %+v", s)
	}
	if s.LocalBWGBs != 49.3 || s.RemoteBWGBs != 8.0 {
		t.Errorf("bandwidths mismatch: local=%v remote=%v", s.LocalBWGBs, s.RemoteBWGBs)
	}
	if s.LocalLatencyNs != 77 || s.RemoteLatencyNs != 130 {
		t.Errorf("latencies mismatch: %v/%v", s.LocalLatencyNs, s.RemoteLatencyNs)
	}
	if got := s.TotalLocalBWGBs(); got != 98.6 {
		t.Errorf("TotalLocalBWGBs = %v, want 98.6", got)
	}
	if got := s.HWThreads(); got != 32 {
		t.Errorf("HWThreads = %d, want 32", got)
	}
}

func TestX52LargeMatchesTable1(t *testing.T) {
	s := X52Large()
	if s.CoresPerSocket != 18 || s.ClockGHz != 2.3 {
		t.Fatalf("topology mismatch: %+v", s)
	}
	if s.LocalBWGBs != 43.8 || s.RemoteBWGBs != 26.8 {
		t.Errorf("bandwidths mismatch: local=%v remote=%v", s.LocalBWGBs, s.RemoteBWGBs)
	}
	if got := s.HWThreads(); got != 72 {
		t.Errorf("HWThreads = %d, want 72", got)
	}
}

func TestSocketOfLayout(t *testing.T) {
	s := X52Small() // 16 threads per socket
	if got := s.SocketOf(0); got != 0 {
		t.Errorf("SocketOf(0) = %d, want 0", got)
	}
	if got := s.SocketOf(15); got != 0 {
		t.Errorf("SocketOf(15) = %d, want 0", got)
	}
	if got := s.SocketOf(16); got != 1 {
		t.Errorf("SocketOf(16) = %d, want 1", got)
	}
	if got := s.SocketOf(31); got != 1 {
		t.Errorf("SocketOf(31) = %d, want 1", got)
	}
}

func TestSocketOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range thread")
		}
	}()
	X52Small().SocketOf(32)
}

func TestExecRate(t *testing.T) {
	s := UMA(4)
	want := 4 * 2.5e9 * s.IPCEff
	if got := s.ExecRate(); got != want {
		t.Errorf("ExecRate = %v, want %v", got, want)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Sockets = 0 },
		func(s *Spec) { s.CoresPerSocket = -1 },
		func(s *Spec) { s.ThreadsPerCore = 0 },
		func(s *Spec) { s.ClockGHz = 0 },
		func(s *Spec) { s.LocalBWGBs = 0 },
		func(s *Spec) { s.RemoteBWGBs = 0 },
		func(s *Spec) { s.LocalLatencyNs = 0 },
		func(s *Spec) { s.RemoteLatencyNs = 1 },
		func(s *Spec) { s.IPCEff = 0 },
		func(s *Spec) { s.RemoteStallFactor = 0.5 },
		func(s *Spec) { s.MemPerSocketGB = 0 },
	}
	for i, mutate := range bad {
		s := X52Small()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error, got nil", i)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("small"); err != nil {
		t.Errorf("ByName(small): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope): expected error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should mention the bad name: %v", err)
	}
}

func TestStringMentionsName(t *testing.T) {
	s := X52Large()
	if got := s.String(); !strings.Contains(got, "2x18-core") {
		t.Errorf("String() = %q, want it to contain the name", got)
	}
}

func TestMemPerSocketBytes(t *testing.T) {
	s := X52Small()
	if got := s.MemPerSocketBytes(); got != 128*GB {
		t.Errorf("MemPerSocketBytes = %d, want %d", got, uint64(128*GB))
	}
}

func TestX58CallistoScale(t *testing.T) {
	s := X58Callisto()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.HWThreads(); got != 1024 {
		t.Errorf("HWThreads = %d, want 1024 (the Callisto-RTS scale)", got)
	}
	if got := s.SocketOf(1023); got != 7 {
		t.Errorf("SocketOf(1023) = %d, want 7", got)
	}
	if _, err := ByName("callisto"); err != nil {
		t.Error(err)
	}
}
