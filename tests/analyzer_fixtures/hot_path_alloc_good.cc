// Known-good fixture for the hot-path-alloc check: payloads come from
// the pool; a deliberate one-off allocation carries NOALLOC(reason).
#include "support.h"

namespace fixtures {

common::Buffer Frame(common::BufferPool& pool, std::size_t n) {
  return pool.Acquire(n);
}

// A new frame in a comment is not code.
const char* kNote = "new buffers come from the pool";

int* Once() { return new int(0); }  // NOALLOC(one-time setup, off the hot path)

}  // namespace fixtures
