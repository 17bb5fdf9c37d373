package counters

import "testing"

func TestShardLocalRemoteSplit(t *testing.T) {
	sh := NewShard(0, 2)
	sh.Read(0, 100)
	sh.Read(1, 40)
	if sh.LocalReadBytes != 100 {
		t.Errorf("LocalReadBytes = %d, want 100", sh.LocalReadBytes)
	}
	if sh.RemoteReadBytes != 40 {
		t.Errorf("RemoteReadBytes = %d, want 40", sh.RemoteReadBytes)
	}
}

func TestShardWrites(t *testing.T) {
	sh := NewShard(1, 2)
	sh.Write(1, 8)
	sh.Write(0, 16)
	if sh.LocalWriteBytes != 8 || sh.RemoteWriteBytes != 16 {
		t.Errorf("writes = local %d remote %d, want 8/16", sh.LocalWriteBytes, sh.RemoteWriteBytes)
	}
}

func TestNewShardPanicsOnBadSocket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewShard(2, 2)
}

func TestFabricSnapshotAggregates(t *testing.T) {
	f := NewFabric(2)
	a := f.NewShard(0)
	b := f.NewShard(0)
	c := f.NewShard(1)

	a.Instr(10)
	a.Read(0, 64)
	a.Read(1, 32)
	b.Instr(5)
	b.Read(0, 64)
	c.Instr(7)
	c.Read(1, 128)
	c.Write(0, 8)
	c.Random(3)
	c.Access(9)

	snap := f.Snapshot()
	s0, s1 := &snap.Sockets[0], &snap.Sockets[1]

	if s0.Instructions != 15 {
		t.Errorf("socket0 instr = %d, want 15", s0.Instructions)
	}
	if got := s0.LocalReadBytes(0); got != 128 {
		t.Errorf("socket0 local reads = %d, want 128", got)
	}
	if got := s0.RemoteReadBytes(0); got != 32 {
		t.Errorf("socket0 remote reads = %d, want 32", got)
	}
	if s1.Instructions != 7 {
		t.Errorf("socket1 instr = %d, want 7", s1.Instructions)
	}
	if got := s1.LocalReadBytes(1); got != 128 {
		t.Errorf("socket1 local reads = %d, want 128", got)
	}
	if s1.WriteBytesTo[0] != 8 {
		t.Errorf("socket1 writes to 0 = %d, want 8", s1.WriteBytesTo[0])
	}
	if s1.RandomAccesses != 3 || s1.Accesses != 9 {
		t.Errorf("socket1 random/accesses = %d/%d, want 3/9", s1.RandomAccesses, s1.Accesses)
	}
}

func TestFabricReset(t *testing.T) {
	f := NewFabric(1)
	sh := f.NewShard(0)
	sh.Instr(5)
	sh.Read(0, 8)
	sh.Write(0, 8)
	sh.Random(1)
	sh.Access(1)
	f.Reset()
	snap := f.Snapshot()
	if s := snap.Sockets[0]; s.Instructions != 0 || s.ReadBytesFrom[0] != 0 ||
		s.WriteBytesTo[0] != 0 || s.RandomAccesses != 0 || s.Accesses != 0 {
		t.Errorf("reset left nonzero counters: %+v", snap)
	}
}
