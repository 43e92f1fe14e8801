package listbuckets

import "testing"

// Component-level list-buckets benchmarks (Table 2's list-buckets row).

func BenchmarkPushPop(b *testing.B) {
	lb := Must(New(1024, 16, 2048))
	var e [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.PushBack(i&1023, e[:])
		lb.PopFront(i&1023, e[:])
	}
}
