#include "sim/engine.hpp"

namespace dclue::sim {

Engine::~Engine() {
  // Destroy callbacks still parked in the arena (events never fired because
  // the run ended first). Free slots have a null destroy pointer.
  for (std::uint32_t i = 0; i < num_slots_; ++i) {
    Slot& s = slot(i);
    if (s.invoke != nullptr && s.destroy != nullptr) s.destroy(s);
  }
}

void Engine::fire_head(Heap& q) {
  const QueueEntry e = q[0];
  heap_pop(q);
  Slot& s = slot(e.slot);
  if (s.generation != e.generation) return;  // cancelled; slot already reused
  // Bump the generation before invoking so handles held by the callback
  // itself (or by anything it touches) read "already fired": cancel() becomes
  // a no-op instead of destroying the running callback.
  ++s.generation;
  --live_;
  now_ = e.time();
  // Events inherit the domain of the event that scheduled them; the key's
  // target byte says which domain this event belongs to.
  if (domain_mode_) cur_domain_ = event_key::tgt_domain(e.seq);
  s.invoke(s);
  // The arena is chunked, so `s` is stable even if the callback scheduled new
  // events; the slot could not be recycled because it was not yet free.
  // Release inline (rather than via release_slot) to reuse the reference.
  if (s.destroy != nullptr) {
    s.destroy(s);
    s.destroy = nullptr;
  }
  s.invoke = nullptr;
  s.next_free = free_head_;
  free_head_ = e.slot;
  ++executed_;
}

std::uint64_t Engine::run_until(Time t_end) {
  const std::uint64_t before = executed_;
  for (Heap* q; (q = next_queue()) != nullptr && (*q)[0].time() <= t_end;) {
    fire_head(*q);
  }
  if (now_ < t_end) now_ = t_end;
  return executed_ - before;
}

std::uint64_t Engine::run_until_before(Time t) {
  const std::uint64_t before = executed_;
  for (Heap* q; (q = next_queue()) != nullptr && (*q)[0].time() < t;) {
    fire_head(*q);
  }
  if (now_ < t) now_ = t;
  return executed_ - before;
}

std::uint64_t Engine::run() {
  const std::uint64_t before = executed_;
  for (Heap* q; (q = next_queue()) != nullptr;) fire_head(*q);
  return executed_ - before;
}

}  // namespace dclue::sim
