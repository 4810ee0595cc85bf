// Unit + property tests for the Java Grande kernel ports: IDEA primitives,
// per-kernel validation, sequential/parallel result equality across
// schedules and team sizes, the simulated work model, and the kernel pool.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "forkjoin/team.hpp"
#include "kernels/crypt.hpp"
#include "kernels/kernel.hpp"
#include "kernels/kernel_pool.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/raytracer.hpp"
#include "kernels/series.hpp"

namespace evmp::kernels {
namespace {

// ---- IDEA primitives ------------------------------------------------------

TEST(IdeaPrimitives, MulAgreesWithDefinition) {
  // mul(a,b) = a*b mod 2^16+1 with 0 encoding 2^16.
  EXPECT_EQ(CryptKernel::mul(1, 1), 1u);
  EXPECT_EQ(CryptKernel::mul(2, 3), 6u);
  // 0 == 2^16 == -1 (mod 65537): (-1)*(-1) = 1.
  EXPECT_EQ(CryptKernel::mul(0, 0), 1u);
  // (-1)*k = 65537-k.
  EXPECT_EQ(CryptKernel::mul(0, 5), 65532u);
}

TEST(IdeaPrimitives, MulInverseRoundTrips) {
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<std::uint16_t>(rng.next_below(0x10000));
    const std::uint16_t inv = CryptKernel::mul_inv(x);
    EXPECT_EQ(CryptKernel::mul(x, inv), 1u) << "x=" << x;
  }
  EXPECT_EQ(CryptKernel::mul_inv(0), 0u);  // -1 is self-inverse
  EXPECT_EQ(CryptKernel::mul_inv(1), 1u);
}

TEST(IdeaPrimitives, AddInverse) {
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::uint16_t>(rng.next_below(0x10000));
    EXPECT_EQ(static_cast<std::uint16_t>(x + CryptKernel::add_inv(x)), 0u);
  }
}

TEST(IdeaPrimitives, BlockRoundTripsForRandomKeys) {
  common::Xoshiro256 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint16_t, 8> userkey{};
    for (auto& k : userkey) {
      k = static_cast<std::uint16_t>(rng.next_below(0x10000));
    }
    const auto z = CryptKernel::encrypt_key(userkey);
    const auto dk = CryptKernel::decrypt_key(z);
    std::uint8_t plain[8];
    std::uint8_t crypt[8];
    std::uint8_t back[8];
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_below(256));
    CryptKernel::cipher_block(plain, crypt, z);
    CryptKernel::cipher_block(crypt, back, dk);
    EXPECT_TRUE(std::equal(std::begin(plain), std::end(plain),
                           std::begin(back)))
        << "trial " << trial;
  }
}

TEST(IdeaPrimitives, CipherChangesData) {
  std::array<std::uint16_t, 8> userkey{1, 2, 3, 4, 5, 6, 7, 8};
  const auto z = CryptKernel::encrypt_key(userkey);
  std::uint8_t plain[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  std::uint8_t crypt[8];
  CryptKernel::cipher_block(plain, crypt, z);
  EXPECT_FALSE(std::equal(std::begin(plain), std::end(plain),
                          std::begin(crypt)));
}

TEST(IdeaPrimitives, KeyScheduleIsDeterministic) {
  std::array<std::uint16_t, 8> userkey{10, 20, 30, 40, 50, 60, 70, 80};
  EXPECT_EQ(CryptKernel::encrypt_key(userkey),
            CryptKernel::encrypt_key(userkey));
}

// ---- per-kernel behaviour -------------------------------------------------

TEST(Crypt, SizeRoundsUpToBlocks) {
  CryptKernel k(13);  // -> 16 bytes -> 2 blocks -> 1 unit
  EXPECT_EQ(k.units(), 1);
}

TEST(Crypt, ValidateFailsOnWrongChecksum) {
  CryptKernel k(SizeClass::kTiny);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_FALSE(k.validate(sum - 1));
}

TEST(Series, LeadingCoefficientsMatchReference) {
  SeriesKernel k(4);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_NEAR(k.a()[0], 2.8819207855, 1e-9);
  EXPECT_NEAR(k.a()[1], 1.1340408915, 1e-9);
  EXPECT_NEAR(k.b()[1], -1.8820818874, 1e-9);
}

TEST(Series, MinimumTwoCoefficients) {
  SeriesKernel k(0);
  EXPECT_GE(k.units(), 2);
}

TEST(MonteCarlo, DeterministicPerPath) {
  MonteCarloKernel a(SizeClass::kTiny);
  MonteCarloKernel b(SizeClass::kTiny);
  a.prepare();
  b.prepare();
  a.run_sequential();
  b.run_sequential();
  EXPECT_EQ(a.final_prices(), b.final_prices());
}

TEST(MonteCarlo, MeanNearAnalyticExpectation) {
  MonteCarloKernel k(4096, MonteCarloKernel::Params{});
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  // E[S_T] = S0 * exp(mu*T); loose band for 4096 samples.
  EXPECT_NEAR(k.mean_final_price(), 100.0 * std::exp(0.05), 3.0);
}

TEST(MonteCarlo, PathsArePositivePrices) {
  MonteCarloKernel k(SizeClass::kTiny);
  k.prepare();
  k.run_sequential();
  for (double p : k.final_prices()) EXPECT_GT(p, 0.0);
}

TEST(RayTracer, RendersNonTrivialImage) {
  RayTracerKernel k(SizeClass::kTiny);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_EQ(k.framebuffer().size(), 32u * 32u);
  std::set<std::uint32_t> distinct(k.framebuffer().begin(),
                                   k.framebuffer().end());
  EXPECT_GT(distinct.size(), 10u);  // shading varies across the image
}

TEST(RayTracer, DeterministicRender) {
  RayTracerKernel a(24, 24);
  RayTracerKernel b(24, 24);
  a.prepare();
  b.prepare();
  EXPECT_EQ(a.run_sequential(), b.run_sequential());
  EXPECT_EQ(a.framebuffer(), b.framebuffer());
}

TEST(RayTracer, CustomDimensions) {
  RayTracerKernel k(17, 9);
  k.prepare();
  EXPECT_EQ(k.units(), 9);
  k.run_sequential();
  EXPECT_EQ(k.framebuffer().size(), 17u * 9u);
}

// ---- factory --------------------------------------------------------------

TEST(Factory, MakesAllPaperKernels) {
  for (const auto& name : kernel_names()) {
    auto k = make_kernel(name, SizeClass::kTiny);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), name);
    k->prepare();
    EXPECT_TRUE(k->validate(k->run_sequential())) << name;
  }
}

TEST(Factory, RejectsUnknownKernel) {
  EXPECT_THROW(make_kernel("fft", SizeClass::kTiny), std::invalid_argument);
}

// ---- parallel == sequential property sweep --------------------------------

struct KernelCase {
  std::string kernel;
  fj::Schedule sched;
  long chunk;
  int team;
};

class KernelParallelEquality : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelParallelEquality, ChecksumsMatchSequential) {
  const auto& p = GetParam();
  auto k = make_kernel(p.kernel, SizeClass::kTiny);
  k->prepare();
  const auto seq = k->run_sequential();
  EXPECT_TRUE(k->validate(seq));
  fj::Team team(p.team);
  for (int round = 0; round < 2; ++round) {
    const auto par = k->run_parallel(team, p.sched, p.chunk);
    EXPECT_EQ(par, seq);
    EXPECT_TRUE(k->validate(par));
  }
}

std::string kernel_case_name(
    const ::testing::TestParamInfo<KernelCase>& info) {
  const auto& p = info.param;
  return p.kernel + "_" + to_string(p.sched) + "_c" +
         std::to_string(p.chunk) + "_t" + std::to_string(p.team);
}

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases;
  for (const auto& k : kernel_names()) {
    cases.push_back({k, fj::Schedule::kStatic, 0, 3});
    cases.push_back({k, fj::Schedule::kDynamic, 1, 4});
    cases.push_back({k, fj::Schedule::kGuided, 2, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelParallelEquality,
                         ::testing::ValuesIn(all_kernel_cases()),
                         kernel_case_name);

// ---- work model -----------------------------------------------------------

TEST(WorkModel, SimulatedStretchesDuration) {
  CryptKernel k(SizeClass::kTiny);
  k.prepare();
  const common::Stopwatch real_sw;
  k.run_sequential();
  const double real_ms = real_sw.elapsed_ms();

  k.set_work_model(WorkModel::kSimulated, common::Micros{500});
  const common::Stopwatch sim_sw;
  const auto sum = k.run_sequential();
  const double sim_ms = sim_sw.elapsed_ms();

  // kTiny crypt has 4 units -> >= 2ms simulated.
  EXPECT_GE(sim_ms, 1.8);
  EXPECT_GT(sim_ms, real_ms);
  EXPECT_TRUE(k.validate(sum));  // the real computation still ran
}

TEST(WorkModel, SimulatedParallelRunsOverlap) {
  // Under the simulated model a 3-wide team should finish the sleep-bound
  // kernel in roughly 1/3 the time even on one CPU.
  SeriesKernel k(12);
  k.prepare();
  k.set_work_model(WorkModel::kSimulated, common::Millis{4});
  const common::Stopwatch seq_sw;
  k.run_sequential();
  const double seq_ms = seq_sw.elapsed_ms();
  fj::Team team(3);
  const common::Stopwatch par_sw;
  k.run_parallel(team);
  const double par_ms = par_sw.elapsed_ms();
  EXPECT_GE(seq_ms, 45.0);
  EXPECT_LT(par_ms, seq_ms * 0.65);
}

TEST(WorkModel, DefaultsToReal) {
  CryptKernel k(SizeClass::kTiny);
  EXPECT_EQ(k.work_model(), WorkModel::kReal);
}

// ---- kernel pool ----------------------------------------------------------

TEST(Pool, ReusesReleasedInstances) {
  KernelPool pool("crypt", SizeClass::kTiny);
  Kernel* first = nullptr;
  {
    auto lease = pool.acquire();
    first = lease.get();
  }
  auto lease = pool.acquire();
  EXPECT_EQ(lease.get(), first);
  EXPECT_EQ(pool.created(), 1u);
}

TEST(Pool, GrowsUnderConcurrentLeases) {
  KernelPool pool("series", SizeClass::kTiny);
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.created(), 2u);
}

TEST(Pool, LeasedKernelsArePrepared) {
  KernelPool pool("montecarlo", SizeClass::kTiny);
  auto k = pool.acquire();
  EXPECT_TRUE(k->validate(k->run_sequential()));
}

TEST(Pool, LeaseOutlivesPool) {
  // Regression: a completion callback may drop the last lease after the
  // pool is gone (late SwingWorker closure destruction on a shared pool
  // thread). The deleter co-owns the free list, so this must be safe.
  std::shared_ptr<Kernel> lease;
  {
    KernelPool pool("crypt", SizeClass::kTiny);
    lease = pool.acquire();
  }
  EXPECT_TRUE(lease->validate(lease->run_sequential()));
  lease.reset();  // returns to the orphaned (and then freed) state
}

TEST(Pool, LeaseReleasedConcurrentlyWithPoolDestruction) {
  for (int round = 0; round < 50; ++round) {
    std::jthread dropper;
    {
      KernelPool pool("series", SizeClass::kTiny);
      auto lease = pool.acquire();
      dropper = std::jthread([l = std::move(lease)]() mutable { l.reset(); });
    }  // pool destruction races the dropper
  }
}

TEST(Pool, FactoryFormAppliesCustomConfig) {
  KernelPool pool([] {
    auto k = std::make_unique<CryptKernel>(std::size_t{1024});
    k->prepare();
    return std::unique_ptr<Kernel>(std::move(k));
  });
  auto k = pool.acquire();
  EXPECT_EQ(k->name(), "crypt");
  EXPECT_EQ(k->units(), 2);  // 1024B = 128 blocks = 2 units
}

}  // namespace
}  // namespace evmp::kernels
