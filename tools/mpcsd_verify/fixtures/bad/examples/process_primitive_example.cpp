// Fixture: an example program that forks.  examples/ is a confinement
// root like src/: process primitives live in src/mpc/backend_process.cpp
// only, so an example must go through the process backend instead.
#include <unistd.h>

int main() {
  const int pid = fork();  // mpcsd-expect: conf-process-primitive
  return pid < 0 ? 1 : 0;
}
