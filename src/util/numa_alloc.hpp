// NUMA-aware placement helpers for long-lived weight buffers.
//
// On a multi-socket host the packed weight tiles are the dominant
// steady-state traffic: every execute streams them from the node they
// happen to live on. Linux places a page on the node of the thread that
// first touches it, so the WeightStore zero-fills each n-block
// partition's tiles from the pool worker that will execute that
// partition — the tiles then stream from local memory without any
// explicit policy. These helpers read the node count and a page's node
// through sysfs and the raw get_mempolicy syscall (no libnuma
// dependency) and degrade to single-node answers on non-Linux
// platforms, so callers never need a build-time switch.
#pragma once

#include <cstddef>

namespace nmspmm::numa {

/// Number of possible NUMA nodes (1 on single-node or unsupported hosts).
int num_nodes();

/// The node backing the page at @p p, or -1 when unknown (page not yet
/// touched, single-node host, or unsupported platform).
int node_of(const void* p);

/// Fault the range in from the calling thread by zero-filling it — the
/// first-touch placement primitive. Also serves as the zero-fill the
/// packed value tiles need for their padding rows/columns.
void first_touch_zero(void* p, std::size_t bytes);

}  // namespace nmspmm::numa
