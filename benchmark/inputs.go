package main

import (
	"hash/fnv"
	"math/rand"
)

// stream derives an independent, reproducible random stream from the run's
// seed and a stream name, so adding a consumer never shifts the inputs of
// another: the same -seed always generates the same workload.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer: adjacent seeds must not give correlated streams.
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}
