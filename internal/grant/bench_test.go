package grant

import (
	"fmt"
	"testing"
)

// BenchmarkGrantResolve measures one saturated grant — the arbd shard
// loop's per-grant scheduling cost — for each of the paper's
// protocols. The hot path is alloc-guarded (TestSteadyStateAllocs pins
// 0); ReportAllocs keeps the trajectory honest in BENCH_*.json.
func BenchmarkGrantResolve(b *testing.B) {
	for _, name := range []string{"FCFS1", "FCFS2", "FP", "RR1", "RR3"} {
		for _, n := range []int{8, 32, 64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				s := mustByName(b, name, n)
				for id := 1; id <= n; id++ {
					s.Enqueue(id)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w := s.Resolve()
					if w == 0 {
						b.Fatal("empty resolve at saturation")
					}
					s.Enqueue(w) // closed loop: winner re-requests
				}
			})
		}
	}
}
