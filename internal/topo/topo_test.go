package topo

import (
	"strings"
	"testing"
)

func mustUniform(t *testing.T, dims []int, protos []string) *Spec {
	t.Helper()
	s, err := Uniform(dims, protos)
	if err != nil {
		t.Fatalf("Uniform(%v, %v): %v", dims, protos, err)
	}
	return s
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" means valid
	}{
		{"flat leaf", Spec{Protocol: "RR1", Agents: 8}, ""},
		{"two level", Spec{Protocol: "FCFS2", Children: []Spec{
			{Protocol: "RR1", Agents: 4}, {Protocol: "RR1", Agents: 4}}}, ""},
		{"missing protocol", Spec{Agents: 4}, "missing protocol"},
		{"unknown protocol", Spec{Protocol: "LRU", Agents: 4}, "unknown protocol"},
		{"both forms", Spec{Protocol: "RR1", Agents: 4, Children: []Spec{
			{Protocol: "RR1", Agents: 2}, {Protocol: "RR1", Agents: 2}}}, "not both"},
		{"empty leaf", Spec{Protocol: "RR1"}, "at least 1 agent"},
		{"single child", Spec{Protocol: "RR1", Children: []Spec{
			{Protocol: "RR1", Agents: 4}}}, "at least 2 children"},
		{"bad nested protocol", Spec{Protocol: "FCFS2", Children: []Spec{
			{Protocol: "RR1", Agents: 4}, {Protocol: "nope", Agents: 4}}},
			"children[1]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestSpecValidateDepthBound(t *testing.T) {
	// A chain deeper than MaxDepth must be rejected.
	spec := Spec{Protocol: "RR1", Agents: 2}
	for i := 0; i < MaxDepth; i++ {
		spec = Spec{Protocol: "RR1", Children: []Spec{spec, {Protocol: "RR1", Agents: 2}}}
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("Validate deep spec = %v, want depth error", err)
	}
}

func TestSpecAccessors(t *testing.T) {
	s := mustUniform(t, []int{8, 4}, []string{"RR1", "FCFS2"})
	if got := s.TotalAgents(); got != 32 {
		t.Errorf("TotalAgents = %d, want 32", got)
	}
	if got := s.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	if got := s.Name(); got != "FCFS2(4xRR1:8)" {
		t.Errorf("Name = %q, want FCFS2(4xRR1:8)", got)
	}
	flat := &Spec{Protocol: "RR1", Agents: 32}
	if got := flat.Name(); got != "RR1" {
		t.Errorf("flat Name = %q, want RR1 (must match the flat bus's ProtocolName)", got)
	}
	mixed := &Spec{Protocol: "FP", Children: []Spec{
		{Protocol: "RR1", Agents: 2}, {Protocol: "RR3", Agents: 6}}}
	if got := mixed.Name(); got != "FP(RR1:2,RR3:6)" {
		t.Errorf("mixed Name = %q", got)
	}
}

func TestParseUniform(t *testing.T) {
	cases := []struct {
		dims, protos string
		wantAgents   int
		wantDepth    int
		wantErr      bool
	}{
		{"8x4", "RR1/FCFS2", 32, 2, false},
		{"32", "RR1", 32, 1, false},
		{"4x4x4", "FP/RR1/FCFS2", 64, 3, false},
		{"8x4", "RR1", 0, 0, true},     // one protocol for two levels
		{"8", "RR1/FCFS2", 0, 0, true}, // two protocols for one level
		{"8xfour", "RR1/FCFS2", 0, 0, true},
		{"0x4", "RR1/FCFS2", 0, 0, true},
		{"-8x4", "RR1/FCFS2", 0, 0, true},
	}
	for _, c := range cases {
		s, err := ParseUniform(c.dims, c.protos)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseUniform(%q, %q) = %v, want error", c.dims, c.protos, s)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseUniform(%q, %q): %v", c.dims, c.protos, err)
			continue
		}
		if s.TotalAgents() != c.wantAgents || s.Depth() != c.wantDepth {
			t.Errorf("ParseUniform(%q, %q) = %d agents depth %d, want %d/%d",
				c.dims, c.protos, s.TotalAgents(), s.Depth(), c.wantAgents, c.wantDepth)
		}
	}
}
