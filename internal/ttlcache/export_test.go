package ttlcache

import "repro/internal/kvmap"

// EvictOne runs the eviction step on a victim sampled with aux, so tests
// can change the entry between sampling and eviction.
func (c *Cache) EvictOne(ks *kvmap.Session, key, aux uint64) bool {
	return c.evictOne(ks, key, aux)
}
