// async_download — the future-work extension in action: non-blocking I/O
// integrated with the event-driven directive model.
//
// A button handler downloads a file via the AsyncIoService (no thread is
// occupied while the transfer is in flight), awaits it with the logical
// barrier (the EDT keeps dispatching other events), then processes the
// bytes on the worker target and displays the result.
//
// Run: ./build/examples/async_download

#include <cstdio>

#include "asyncio/async_io.hpp"
#include "common/sync.hpp"
#include "core/evmp.hpp"
#include "kernels/crypt.hpp"

int main() {
  evmp::event::EventLoop edt("edt");
  edt.start();
  evmp::rt().register_edt("edt", edt);
  evmp::rt().create_worker("worker", 2);

  evmp::io::AsyncIoService::Config io_cfg;
  io_cfg.network.base_latency = evmp::common::Millis{60};
  io_cfg.network.bytes_per_sec = 5e6;  // ~40ms for 200KB
  evmp::io::AsyncIoService io(io_cfg);

  evmp::common::CountdownLatch done(1);

  edt.post([&] {
    std::printf("[edt]    click: starting download (EDT stays live)\n");
    auto transfer = io.fetch_url("https://example.org/data.bin", 200'000);

    // The logical barrier: while ~100ms of network time elapses, the EDT
    // below keeps dispatching ticks; zero worker threads are blocked.
    evmp::rt().await_handle(transfer.handle());
    std::printf("[edt]    download complete: %zu bytes\n", transfer.size());

    // Heavy post-processing goes to the worker target (Figure 6 pattern).
    evmp::target("worker").await([&] {
      evmp::kernels::CryptKernel crypt(transfer.data().size());
      crypt.prepare();
      const auto checksum = crypt.run_sequential();
      std::printf("[worker] encrypted round-trip checksum: %llu blocks ok\n",
                  static_cast<unsigned long long>(checksum));
    });
    std::printf("[edt]    pipeline finished\n");
    done.count_down();
  });

  // Competing events that must keep flowing during the await.
  for (int i = 0; i < 5; ++i) {
    edt.add_timer(
        evmp::common::Millis{15 * (i + 1)},
        [i] { std::printf("[edt]    tick %d dispatched during download\n", i); });
  }

  done.wait();
  edt.wait_until_idle();
  std::printf("io: %llu ops, %llu bytes; edt max nesting %d\n",
              static_cast<unsigned long long>(io.operations_completed()),
              static_cast<unsigned long long>(io.bytes_transferred()),
              edt.max_nesting());
  evmp::rt().clear();
  return 0;
}
