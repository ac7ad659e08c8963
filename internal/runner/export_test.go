package runner

// Workers returns the pool's concurrency bound (TestNewDefaults reads it).
func (p *Pool) Workers() int { return p.workers }
