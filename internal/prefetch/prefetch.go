// Package prefetch asks the processor to start loading a cache line that
// will be read soon, without waiting for it.
//
// A plain load of a line that misses holds retirement until its data
// arrives, so a loop of independent lookups pays one miss after another. A
// prefetch retires at once: a pass of prefetches over lines known in
// advance lets their misses overlap, and the reads that follow find the
// lines in cache. A prefetch changes no memory and never faults; it is only
// a hint, which the processor may ignore.
package prefetch
