#include "rtl/elaborate.hpp"

#include <cctype>
#include <map>
#include <optional>

#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

// ---- tokenizer -----------------------------------------------------------

struct Tokenizer {
  const std::string& text;
  std::size_t pos = 0;

  explicit Tokenizer(const std::string& t) : text(t) {}

  void skip_space() {
    while (pos < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      } else if (text[pos] == '/' && pos + 1 < text.size() &&
                 text[pos + 1] == '/') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_space();
    return pos >= text.size();
  }

  std::string next() {
    skip_space();
    require(pos < text.size(), "elaborate_verilog", "unexpected end of input");
    const char c = text[pos];
    const auto word_char = [](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
             ch == '$' || ch == '\'';
    };
    if (word_char(c)) {
      const std::size_t start = pos;
      while (pos < text.size() && word_char(text[pos])) ++pos;
      return text.substr(start, pos - start);
    }
    ++pos;
    return std::string(1, c);
  }

  std::string expect(const char* what) {
    const std::string t = next();
    require(t == what, "elaborate_verilog",
            ("expected '" + std::string(what) + "', got '" + t + "'").c_str());
    return t;
  }
};

// ---- parsed module -------------------------------------------------------

struct PGate {
  GateType type;
  std::string out;
  std::vector<std::string> ins;
};
struct PDff {
  std::string d, q;
};
struct PAssign {
  std::string lhs, rhs;  // rhs: net name, "1'b0", or "1'b1"
};
struct PInst {
  std::string module, name;
  std::vector<std::pair<std::string, std::string>> conns;  // port -> net
};

struct PModule {
  std::string name;
  std::vector<std::string> inputs, outputs, wires;
  std::vector<PGate> gates;
  std::vector<PDff> dffs;
  std::vector<PAssign> assigns;
  std::vector<PInst> insts;
};

std::optional<GateType> primitive_type(const std::string& word) {
  if (word == "buf") return GateType::kBuf;
  if (word == "not") return GateType::kNot;
  if (word == "and") return GateType::kAnd;
  if (word == "nand") return GateType::kNand;
  if (word == "or") return GateType::kOr;
  if (word == "nor") return GateType::kNor;
  if (word == "xor") return GateType::kXor;
  if (word == "xnor") return GateType::kXnor;
  return std::nullopt;
}

void parse_name_list(Tokenizer& tok, std::vector<std::string>& into) {
  for (;;) {
    into.push_back(tok.next());
    const std::string sep = tok.next();
    if (sep == ";") return;
    require(sep == ",", "elaborate_verilog", "expected ',' or ';'");
  }
}

PModule parse_module(Tokenizer& tok) {
  PModule m;
  m.name = tok.next();
  tok.expect("(");
  // Port list: names only (the writer emits non-ANSI headers).
  for (std::string t = tok.next(); t != ")"; t = tok.next()) {
    require(t == "," || t != ";", "elaborate_verilog", "bad port list");
  }
  tok.expect(";");
  for (;;) {
    const std::string word = tok.next();
    if (word == "endmodule") return m;
    if (word == "input") {
      parse_name_list(tok, m.inputs);
    } else if (word == "output") {
      parse_name_list(tok, m.outputs);
    } else if (word == "wire") {
      parse_name_list(tok, m.wires);
    } else if (word == "assign") {
      PAssign a;
      a.lhs = tok.next();
      tok.expect("=");
      a.rhs = tok.next();
      tok.expect(";");
      m.assigns.push_back(std::move(a));
    } else if (const auto prim = primitive_type(word)) {
      tok.next();  // instance name (unused)
      tok.expect("(");
      std::vector<std::string> nets;
      for (;;) {
        nets.push_back(tok.next());
        const std::string sep = tok.next();
        if (sep == ")") break;
        require(sep == ",", "elaborate_verilog", "bad gate connection list");
      }
      tok.expect(";");
      require(nets.size() >= 2, "elaborate_verilog", "gate with no fanin");
      PGate g;
      g.type = *prim;
      g.out = nets[0];
      g.ins.assign(nets.begin() + 1, nets.end());
      m.gates.push_back(std::move(g));
    } else {
      // Module or fbt_dff instance with named connections.
      PInst inst;
      inst.module = word;
      inst.name = tok.next();
      tok.expect("(");
      for (;;) {
        tok.expect(".");
        const std::string port = tok.next();
        tok.expect("(");
        const std::string net = tok.next();
        tok.expect(")");
        inst.conns.emplace_back(port, net);
        const std::string sep = tok.next();
        if (sep == ")") break;
        require(sep == ",", "elaborate_verilog", "bad instance connections");
      }
      tok.expect(";");
      if (inst.module == "fbt_dff") {
        PDff dff;
        for (const auto& [port, net] : inst.conns) {
          if (port == "d") dff.d = net;
          if (port == "q") dff.q = net;
        }
        require(!dff.d.empty() && !dff.q.empty(), "elaborate_verilog",
                "fbt_dff instance missing d/q");
        m.dffs.push_back(std::move(dff));
      } else {
        m.insts.push_back(std::move(inst));
      }
    }
  }
}

void skip_module_body(Tokenizer& tok) {
  while (tok.next() != "endmodule") {
  }
}

// ---- flattening ----------------------------------------------------------

struct Flattener {
  const std::map<std::string, PModule>& modules;

  // Union-find over hierarchical net keys.
  std::unordered_map<std::string, int> key_id;
  std::vector<int> parent;
  std::vector<std::string> key_name;

  struct FlatGate {
    GateType type;
    int out;
    std::vector<int> ins;
  };
  struct FlatDff {
    int d, q;
  };
  std::vector<FlatGate> gates;
  std::vector<FlatDff> dffs;

  explicit Flattener(const std::map<std::string, PModule>& mods)
      : modules(mods) {}

  int key(const std::string& name) {
    const auto [it, inserted] =
        key_id.emplace(name, static_cast<int>(parent.size()));
    if (inserted) {
      parent.push_back(it->second);
      key_name.push_back(name);
    }
    return it->second;
  }

  int find(int a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  }

  void unite(int a, int b) { parent[find(a)] = find(b); }

  void instantiate(const std::string& mod_name, const std::string& prefix,
                   const std::unordered_map<std::string, int>& binds) {
    const auto it = modules.find(mod_name);
    require(it != modules.end(), "elaborate_verilog",
            ("unknown module '" + mod_name + "'").c_str());
    const PModule& m = it->second;
    const auto local = [&](const std::string& net) {
      if (net == "1'b0" || net == "1'b1") {
        // A constant literal in a connection position gets its own node.
        const int id = key(prefix + "$const$" + std::to_string(gates.size()));
        gates.push_back({net == "1'b1" ? GateType::kConst1 : GateType::kConst0,
                         id,
                         {}});
        return id;
      }
      return key(prefix + net);
    };
    for (const auto& [port, bound] : binds) {
      unite(key(prefix + port), bound);
    }
    for (const PAssign& a : m.assigns) {
      if (a.rhs == "1'b0" || a.rhs == "1'b1") {
        gates.push_back(
            {a.rhs == "1'b1" ? GateType::kConst1 : GateType::kConst0,
             local(a.lhs),
             {}});
      } else {
        unite(local(a.lhs), local(a.rhs));
      }
    }
    for (const PGate& g : m.gates) {
      FlatGate fg;
      fg.type = g.type;
      fg.out = local(g.out);
      for (const std::string& in : g.ins) fg.ins.push_back(local(in));
      gates.push_back(std::move(fg));
    }
    for (const PDff& d : m.dffs) {
      dffs.push_back({local(d.d), local(d.q)});
    }
    for (const PInst& inst : m.insts) {
      std::unordered_map<std::string, int> child_binds;
      for (const auto& [port, net] : inst.conns) {
        if (port == "clk") continue;  // the single clock is implicit
        child_binds.emplace(port, local(net));
      }
      instantiate(inst.module, prefix + inst.name + "__", child_binds);
    }
  }
};

}  // namespace

RtlDesign elaborate_verilog(const std::string& text, const std::string& top) {
  std::map<std::string, PModule> modules;
  Tokenizer tok(text);
  while (!tok.eof()) {
    tok.expect("module");
    // Peek the module name to special-case the behavioral fbt_dff cell.
    const std::size_t name_pos = tok.pos;
    const std::string name = tok.next();
    if (name == "fbt_dff") {
      skip_module_body(tok);
      continue;
    }
    tok.pos = name_pos;
    PModule m = parse_module(tok);
    require(modules.emplace(m.name, m).second, "elaborate_verilog",
            ("duplicate module '" + m.name + "'").c_str());
  }
  require(modules.count(top) != 0, "elaborate_verilog",
          ("top module '" + top + "' not found").c_str());

  Flattener flat(modules);
  flat.instantiate(top, "", {});

  // Group keys by their union-find root; pick the shortest (then
  // lexicographically smallest) alias as the canonical node name, which
  // prefers top-level wires over instance-path names.
  std::unordered_map<int, std::vector<int>> members;
  for (int id = 0; id < static_cast<int>(flat.parent.size()); ++id) {
    members[flat.find(id)].push_back(id);
  }
  const int clk_root =
      flat.key_id.count("clk") != 0 ? flat.find(flat.key_id.at("clk")) : -1;

  std::unordered_map<int, std::string> canonical;
  for (const auto& [root, ids] : members) {
    const std::string* best = nullptr;
    for (const int id : ids) {
      const std::string& name = flat.key_name[id];
      if (best == nullptr || name.size() < best->size() ||
          (name.size() == best->size() && name < *best)) {
        best = &name;
      }
    }
    canonical[root] = *best;
  }

  // Identify each root's driver.
  std::unordered_map<int, int> dff_of;        // q root -> dff index
  std::unordered_map<int, std::size_t> gate_of;  // out root -> gate index
  for (std::size_t i = 0; i < flat.dffs.size(); ++i) {
    const int root = flat.find(flat.dffs[i].q);
    require(dff_of.emplace(root, static_cast<int>(i)).second &&
                gate_of.count(root) == 0,
            "elaborate_verilog", "multiply-driven net (flop output)");
  }
  for (std::size_t i = 0; i < flat.gates.size(); ++i) {
    const int root = flat.find(flat.gates[i].out);
    require(gate_of.emplace(root, i).second && dff_of.count(root) == 0,
            "elaborate_verilog", "multiply-driven net (gate output)");
  }

  RtlDesign design{Netlist("flat_" + top), {}};
  std::unordered_map<int, NodeId> node_of;
  for (std::size_t i = 0; i < flat.dffs.size(); ++i) {
    const int root = flat.find(flat.dffs[i].q);
    if (node_of.count(root) == 0) {
      node_of.emplace(root, design.netlist.add_dff(canonical.at(root)));
    }
  }
  // Top-level input ports become primary inputs (the single clock excluded);
  // the emitted BIST top has none, but this lets the elaborator round-trip a
  // bare CUT module written by write_verilog.
  for (const std::string& in : modules.at(top).inputs) {
    if (in == "clk") continue;
    const int root = flat.find(flat.key_id.at(in));
    require(dff_of.count(root) == 0 && gate_of.count(root) == 0,
            "elaborate_verilog", "top-level input is also driven internally");
    if (node_of.count(root) == 0) {
      node_of.emplace(root, design.netlist.add_input(canonical.at(root)));
    }
  }
  // Add gates in dependency order (fixpoint, mirroring the .bench reader).
  std::vector<char> placed(flat.gates.size(), 0);
  std::size_t remaining = flat.gates.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < flat.gates.size(); ++i) {
      if (placed[i]) continue;
      const Flattener::FlatGate& g = flat.gates[i];
      bool ready = true;
      std::vector<NodeId> fanins;
      for (const int in : g.ins) {
        const auto it = node_of.find(flat.find(in));
        if (it == node_of.end()) {
          ready = false;
          break;
        }
        fanins.push_back(it->second);
      }
      if (!ready) continue;
      const int root = flat.find(g.out);
      node_of.emplace(root,
                      design.netlist.add_gate(g.type, canonical.at(root),
                                              std::move(fanins)));
      placed[i] = 1;
      --remaining;
      progress = true;
    }
    require(progress, "elaborate_verilog",
            "combinational cycle or undriven net in the flattened design");
  }
  for (const Flattener::FlatDff& d : flat.dffs) {
    const auto it = node_of.find(flat.find(d.d));
    require(it != node_of.end(), "elaborate_verilog", "undriven flop D input");
    design.netlist.set_dff_input(node_of.at(flat.find(d.q)), it->second);
  }
  // Mark the top module's output ports.
  for (const std::string& out : modules.at(top).outputs) {
    const int root = flat.find(flat.key_id.at(out));
    const NodeId node = node_of.at(root);
    if (!design.netlist.is_output(node)) design.netlist.mark_output(node);
  }
  design.netlist.finalize();

  for (const auto& [name, id] : flat.key_id) {
    const int root = flat.find(id);
    if (root == clk_root) continue;
    const auto it = node_of.find(root);
    if (it != node_of.end()) design.nodes.emplace(name, it->second);
  }
  return design;
}

RtlSim::RtlSim(const RtlDesign& design)
    : design_(&design), values_(design.netlist.size(), 0) {
  settle();
}

void RtlSim::settle() { fbt::settle(design_->netlist, values_.data()); }

void RtlSim::step() {
  const Netlist& nl = design_->netlist;
  next_state_.resize(nl.num_flops());
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    next_state_[i] = values_[nl.dff_input(nl.flops()[i])];
  }
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    values_[nl.flops()[i]] = next_state_[i];
  }
  settle();
}

std::uint8_t RtlSim::value(const std::string& name) const {
  const NodeId id = design_->node(name);
  require(id != kNoNode, "RtlSim::value",
          ("unknown net '" + name + "'").c_str());
  return values_[id];
}

}  // namespace fbt
