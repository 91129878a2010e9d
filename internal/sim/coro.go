//go:build go1.23

package sim

import "iter"

// start gives p its coroutine. The coroutine begins executing on the first
// p.next(), which is the dispatch of the proc's first body.
func (p *proc) start() { p.next, p.stop = iter.Pull(p.loop) }

// loop is the coroutine body of every proc: run one dispatched body, yield as
// done, and on the next resume run the next one. Between bodies the proc sits
// on the kernel's free list; p.stop() (drainPool) makes that yield return
// false and ends the coroutine. The yields inside a body (Env.block) ignore
// the result — a proc suspended mid-body is never stopped.
func (p *proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.state = procRunnable
		fn := p.body
		p.body = nil
		fn(p.env)
		p.state = procDone
		if !yield(struct{}{}) {
			return
		}
	}
}
