#pragma once
// Heap-allocation counter: the benchmark binary replaces the global
// operator new and counts every call, so a run can report allocations per
// operation across every thread of the process (client, reactor, EDT,
// workers). Sanitizer builds keep their own allocator and report 0.

#include <cstdint>

namespace evbench {

/// Allocations made by the process so far (all threads).
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace evbench
