package cache

import "testing"

func TestPaperConfig(t *testing.T) {
	c := PaperConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	if got := c.SizeBytes(); got != 1024 {
		t.Errorf("SizeBytes = %d, want 1024 (1KB per Section IV.A)", got)
	}
	if got := c.BlockBits(); got != 128 {
		t.Errorf("BlockBits = %d, want 128 (16-byte lines)", got)
	}
	if got := c.Sets; got != 16 {
		t.Errorf("Sets = %d, want 16 (1KB / (4 ways * 16B))", got)
	}
	if got := c.MissCost(); got != 101 {
		t.Errorf("MissCost = %d, want 101 (1-cycle cache + 100-cycle memory)", got)
	}
	if got := c.MissPenalty(); got != 100 {
		t.Errorf("MissPenalty = %d, want 100", got)
	}
}

func TestConfigValidate(t *testing.T) {
	base := PaperConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sets", func(c *Config) { c.Sets = 0 }},
		{"negative ways", func(c *Config) { c.Ways = -1 }},
		{"zero block", func(c *Config) { c.BlockBytes = 0 }},
		{"non power of two block", func(c *Config) { c.BlockBytes = 12 }},
		{"non power of two sets", func(c *Config) { c.Sets = 3 }},
		{"zero hit latency", func(c *Config) { c.HitLatency = 0 }},
		{"zero mem latency", func(c *Config) { c.MemLatency = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted invalid config %+v", c)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("Validate rejected valid config: %v", err)
	}
}

func TestAddressMapping(t *testing.T) {
	c := PaperConfig()
	// 16-byte blocks: addresses 0..15 share block 0, set 0.
	for addr := uint32(0); addr < 16; addr++ {
		if got := c.BlockAddr(addr); got != 0 {
			t.Fatalf("BlockAddr(%d) = %d, want 0", addr, got)
		}
		if got := c.SetOfBlock(c.BlockAddr(addr)); got != 0 {
			t.Fatalf("set of address %d = %d, want 0", addr, got)
		}
	}
	// Block 16 wraps around to set 0 again (16 sets).
	if got := c.SetOfBlock(c.BlockAddr(16 * 16)); got != 0 {
		t.Errorf("set of address 256 = %d, want 0 (wraps around)", got)
	}
	if got := c.SetOfBlock(c.BlockAddr(17 * 16)); got != 1 {
		t.Errorf("set of address 272 = %d, want 1", got)
	}
	// Consecutive blocks map to consecutive sets.
	for b := uint32(0); b < 64; b++ {
		if got := c.SetOfBlock(b); got != int(b)%16 {
			t.Fatalf("SetOfBlock(%d) = %d, want %d", b, got, b%16)
		}
	}
}

func TestMechanismString(t *testing.T) {
	for _, tc := range []struct {
		m    Mechanism
		want string
	}{
		{MechanismNone, "none"},
		{MechanismRW, "rw"},
		{MechanismSRB, "srb"},
	} {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", int(tc.m), got, tc.want)
		}
		back, err := ParseMechanism(tc.want)
		if err != nil || back != tc.m {
			t.Errorf("ParseMechanism(%q) = %v, %v; want %v, nil", tc.want, back, err, tc.m)
		}
	}
	if _, err := ParseMechanism("victim"); err == nil {
		t.Error("ParseMechanism accepted unknown name")
	}
}
