#pragma once
// Allocation counter for the zero-allocation tests. A test binary linked
// with alloc_counter.cpp has its global operator new and delete replaced:
// while `g_count_allocs` is set, every operator new, from any thread, adds
// one to `g_alloc_count`.
#include <atomic>

extern std::atomic<bool> g_count_allocs;
extern std::atomic<long long> g_alloc_count;
