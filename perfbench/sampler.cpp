#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

// Fixed buffer written from the signal handler: no allocation, one relaxed
// atomic per sample. 1 M samples covers minutes of 4-thread CPU time at 1 ms.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_next{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
  std::uintptr_t pc = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
#endif
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(int period_us) {
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

struct FuncSymbol {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::uint32_t name = 0;  ///< offset into the string table
};

struct SymbolTable {
  std::vector<FuncSymbol> funcs;  ///< sorted by lo
  std::vector<char> strtab;
};

template <typename T>
void read_at(std::ifstream& f, std::uint64_t offset, T* out, std::size_t count) {
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(reinterpret_cast<char*>(out),
         static_cast<std::streamsize>(count * sizeof(T)));
  if (!f) throw std::runtime_error("short read in /proc/self/exe");
}

/// The executable's STT_FUNC symbols (from .symtab, which an unstripped
/// RelWithDebInfo build keeps), in link-time addresses.
SymbolTable read_function_symbols() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  if (!f) throw std::runtime_error("cannot open /proc/self/exe");
  Elf64_Ehdr eh{};
  read_at(f, 0, &eh, 1);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 || eh.e_shentsize != sizeof(Elf64_Shdr)) {
    throw std::runtime_error("/proc/self/exe is not a 64-bit ELF file");
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  read_at(f, eh.e_shoff, sections.data(), sections.size());
  SymbolTable table;
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
    const Elf64_Shdr& str = sections[sh.sh_link];
    table.strtab.resize(str.sh_size + 1, '\0');
    read_at(f, str.sh_offset, table.strtab.data(), str.sh_size);
    std::vector<Elf64_Sym> syms(sh.sh_size / sizeof(Elf64_Sym));
    read_at(f, sh.sh_offset, syms.data(), syms.size());
    for (const Elf64_Sym& s : syms) {
      if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
          s.st_size == 0 || s.st_name >= str.sh_size) {
        continue;
      }
      table.funcs.push_back({s.st_value, s.st_value + s.st_size, s.st_name});
    }
    break;
  }
  if (table.funcs.empty()) {
    throw std::runtime_error("executable has no function symbols (stripped?)");
  }
  std::sort(table.funcs.begin(), table.funcs.end(),
            [](const FuncSymbol& a, const FuncSymbol& b) { return a.lo < b.lo; });
  return table;
}

/// Load bias of the main executable (0 unless it is position-independent).
std::uintptr_t executable_load_bias() {
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first entry is the main program
      },
      &bias);
  return bias;
}

std::string demangle(const char* mangled) {
  int status = 0;
  std::unique_ptr<char, decltype(&std::free)> out(
      abi::__cxa_demangle(mangled, nullptr, nullptr, &status), &std::free);
  return status == 0 && out ? std::string(out.get()) : std::string(mangled);
}

/// Module of a demangled function name: the namespace after its first
/// `dclue::` (dclue::obs lives under src/sim, so it counts as sim).
std::string module_of(std::string_view name) {
  const std::size_t pos = name.find("dclue::");
  if (pos == std::string_view::npos) return "other";
  std::string_view ns = name.substr(pos + 7);
  ns = ns.substr(0, ns.find("::"));
  if (ns == "obs") return "sim";
  for (const char* m : kModules) {
    if (ns == m) return std::string(m);
  }
  return "other";
}

}  // namespace

void start_sampling(int period_us) {
  g_next.store(0, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  set_timer(period_us);
}

void stop_sampling() {
  set_timer(0);
  // A tick already pending on another thread must not reach a default
  // handler (which would terminate the process).
  signal(SIGPROF, SIG_IGN);
}

SampleProfile attribute_samples() {
  SampleProfile profile;
  for (const char* m : kModules) profile.by_module[m] = 0;
  const std::size_t n = std::min(g_next.load(std::memory_order_relaxed), kMaxSamples);
  profile.samples = n;

  const SymbolTable table = read_function_symbols();
  const std::uintptr_t bias = executable_load_bias();
  std::unordered_map<std::uint32_t, std::string> module_by_symbol;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i] - bias;
    auto it = std::upper_bound(
        table.funcs.begin(), table.funcs.end(), pc,
        [](std::uintptr_t v, const FuncSymbol& s) { return v < s.lo; });
    if (it == table.funcs.begin() || pc >= std::prev(it)->hi) {
      ++profile.by_module["other"];
      continue;
    }
    const std::uint32_t name = std::prev(it)->name;
    auto found = module_by_symbol.find(name);
    if (found == module_by_symbol.end()) {
      found = module_by_symbol
                  .emplace(name, module_of(demangle(&table.strtab[name])))
                  .first;
    }
    ++profile.by_module[found->second];
  }
  return profile;
}

}  // namespace perfbench
