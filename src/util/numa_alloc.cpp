#include "util/numa_alloc.hpp"

#include <cstring>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#endif

namespace nmspmm::numa {

#if defined(__linux__)

namespace {

// Policy constants from <linux/mempolicy.h>, declared locally so the
// build does not depend on kernel headers being installed.
constexpr unsigned kMpolFNode = 1u << 0;
constexpr unsigned kMpolFAddr = 1u << 1;

int parse_possible_nodes() {
  // /sys/devices/system/node/possible reads like "0" or "0-3": the
  // highest listed node bounds the count.
  std::FILE* f = std::fopen("/sys/devices/system/node/possible", "re");
  if (f == nullptr) return 1;
  char buf[64] = {};
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (got == 0) return 1;
  int highest = 0;
  for (const char* p = buf; *p != '\0'; ++p) {
    if (*p >= '0' && *p <= '9') {
      int v = 0;
      while (*p >= '0' && *p <= '9') v = v * 10 + (*p++ - '0');
      if (v > highest) highest = v;
      if (*p == '\0') break;
    }
  }
  return highest + 1;
}

}  // namespace

int num_nodes() {
  static const int nodes = parse_possible_nodes();
  return nodes;
}

int node_of(const void* p) {
  if (p == nullptr) return -1;
  int node = -1;
  if (syscall(SYS_get_mempolicy, &node, nullptr, 0, p,
              kMpolFNode | kMpolFAddr) != 0) {
    return -1;
  }
  return node;
}

#else  // !__linux__

int num_nodes() { return 1; }
int node_of(const void*) { return -1; }

#endif

void first_touch_zero(void* p, std::size_t bytes) {
  if (p != nullptr && bytes != 0) std::memset(p, 0, bytes);
}

}  // namespace nmspmm::numa
