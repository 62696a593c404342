// Heap-allocation counter for tests. alloc_counter.cc replaces the global
// operator new and new[] (and the matching deletes) with versions that bump
// g_alloc_count on every call, so a test can count the heap allocations a code
// region performs, or assert that it performed none. Add alloc_counter.cc to
// a test executable's sources to use it.
#pragma once

#include <cstdint>

// Calls to the global operator new and new[] since the program started.
extern std::uint64_t g_alloc_count;
