// Known-bad fixture for the hot-path-alloc check (the check keys on
// "hot_path_alloc" in the filename / src/transport/ and src/compress/
// paths): payload buffers that bypass common::BufferPool.
#include <cstdlib>

namespace fixtures {

float* Frame(std::size_t n) { return new float[n]; }  // BAD: raw new

void* Scratch(std::size_t n) { return std::malloc(n); }  // BAD: malloc

void* Zeroed(std::size_t n) { return calloc(n, 4); }  // BAD: calloc

void* Grow(void* p, std::size_t n) { return realloc(p, n); }  // BAD: realloc

}  // namespace fixtures
