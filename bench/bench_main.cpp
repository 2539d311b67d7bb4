// main() of every bench_e* experiment binary. Each experiment defines run()
// with its body; a malformed or out-of-range flag, or any other error run()
// throws, prints one line and exits 2 instead of aborting.
#include <exception>
#include <iostream>

#include "fedcons/util/flags.h"

int run(const fedcons::Flags& flags);

int main(int argc, char** argv) {
  try {
    return run(fedcons::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
