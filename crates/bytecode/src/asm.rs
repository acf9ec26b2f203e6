//! A textual assembler for programs.
//!
//! Lets test programs and small case studies be written as text instead of
//! builder calls:
//!
//! ```text
//! class Shape fields=1
//! class Square extends=Shape fields=0
//!
//! method Shape.area class=Shape params=1 locals=0 {
//!     load 0
//!     getfield 0
//!     ret
//! }
//!
//! method main class=Shape params=0 locals=1 {
//!     new Square
//!     store 0
//! loop:
//!     load 0
//!     callvirt 0 1
//!     ret
//! }
//!
//! vtable Shape 0 Shape.area
//! vtable Square 0 Shape.area
//! entry main
//! ```
//!
//! Grammar (line-oriented; `#` starts a comment):
//!
//! * `class NAME fields=N [extends=PARENT]` — classes, in order; a parent
//!   must be declared first;
//! * `method NAME class=CLS params=N locals=M { … }` — `locals` counts
//!   extra (non-parameter) slots; bodies may reference methods declared
//!   later;
//! * `LABEL:` lines bind jump targets; jumps reference labels by name;
//! * `vtable CLS SLOT METHOD` and `entry METHOD` wire dispatch and the
//!   entry point.

use crate::builder::{BuildError, Label, ProgramBuilder};
use crate::ids::{ClassId, MethodId, VirtualSlot};
use crate::op::Op;
use crate::program::Program;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly failure, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "asm: {}", self.message)
        } else {
            write!(f, "asm line {}: {}", self.line, self.message)
        }
    }
}

impl Error for AsmError {}

impl From<BuildError> for AsmError {
    fn from(e: BuildError) -> Self {
        AsmError {
            line: 0,
            message: e.to_string(),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Parses `key=value` out of a token.
fn kv<'a>(token: &'a str, key: &str, line: usize) -> Result<&'a str, AsmError> {
    token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| err(line, format!("expected `{key}=…`, found `{token}`")))
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, AsmError> {
    s.parse()
        .map_err(|_| err(line, format!("`{s}` is not a valid number")))
}

#[derive(Debug)]
struct MethodSource {
    id: MethodId,
    extra_locals: u16,
    /// `(line_number, text)` of body lines.
    body: Vec<(usize, String)>,
}

/// Assembles a program from its textual form.
///
/// # Errors
///
/// Returns an [`AsmError`] pinpointing the first malformed line, or
/// wrapping the verifier error if the assembled program is invalid.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    let mut classes: HashMap<String, ClassId> = HashMap::new();
    let mut methods: HashMap<String, MethodId> = HashMap::new();
    let mut sources: Vec<MethodSource> = Vec::new();
    let mut vtables: Vec<(usize, String, u16, String)> = Vec::new();
    let mut entry: Option<(usize, String)> = None;

    // Pass 1: declarations, collected bodies.
    let mut lines = source.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "class" => {
                if tokens.len() < 3 {
                    return Err(err(line_no, "class NAME fields=N [extends=PARENT]"));
                }
                let name = tokens[1];
                let mut fields: Option<u16> = None;
                let mut parent: Option<ClassId> = None;
                for token in &tokens[2..] {
                    if let Some(v) = token.strip_prefix("fields=") {
                        fields = Some(parse_num(v, line_no)?);
                    } else if let Some(parent_name) = token.strip_prefix("extends=") {
                        parent = Some(*classes.get(parent_name).ok_or_else(|| {
                            err(line_no, format!("unknown parent `{parent_name}`"))
                        })?);
                    } else {
                        return Err(err(line_no, format!("unexpected `{token}`")));
                    }
                }
                let fields = fields.ok_or_else(|| err(line_no, "class is missing `fields=N`"))?;
                let id = match parent {
                    Some(parent) => b.add_subclass(name, parent, fields),
                    None => b.add_class(name, fields),
                };
                if classes.insert(name.to_owned(), id).is_some() {
                    return Err(err(line_no, format!("duplicate class `{name}`")));
                }
            }
            "method" => {
                if tokens.len() < 6 || tokens[5] != "{" {
                    return Err(err(line_no, "method NAME class=CLS params=N locals=M {"));
                }
                let name = tokens[1];
                let cls_name = kv(tokens[2], "class", line_no)?;
                let cls = *classes
                    .get(cls_name)
                    .ok_or_else(|| err(line_no, format!("unknown class `{cls_name}`")))?;
                let params: u16 = parse_num(kv(tokens[3], "params", line_no)?, line_no)?;
                let extra_locals: u16 = parse_num(kv(tokens[4], "locals", line_no)?, line_no)?;
                let id = b.declare(name, cls, params);
                if methods.insert(name.to_owned(), id).is_some() {
                    return Err(err(line_no, format!("duplicate method `{name}`")));
                }
                let mut body = Vec::new();
                let mut closed = false;
                for (bidx, braw) in lines.by_ref() {
                    let bline = strip_comment(braw);
                    if bline == "}" {
                        closed = true;
                        break;
                    }
                    if !bline.is_empty() {
                        body.push((bidx + 1, bline.to_owned()));
                    }
                }
                if !closed {
                    return Err(err(line_no, format!("method `{name}` missing `}}`")));
                }
                sources.push(MethodSource {
                    id,
                    extra_locals,
                    body,
                });
            }
            "vtable" => {
                if tokens.len() != 4 {
                    return Err(err(line_no, "vtable CLS SLOT METHOD"));
                }
                vtables.push((
                    line_no,
                    tokens[1].to_owned(),
                    parse_num(tokens[2], line_no)?,
                    tokens[3].to_owned(),
                ));
            }
            "entry" => {
                if tokens.len() != 2 {
                    return Err(err(line_no, "entry METHOD"));
                }
                entry = Some((line_no, tokens[1].to_owned()));
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    // Pass 2: assemble bodies (methods and classes all known now).
    for src in sources {
        assemble_body(&mut b, &src, &classes, &methods)?;
    }
    for (line_no, cls_name, slot, method_name) in vtables {
        let cls = *classes
            .get(&cls_name)
            .ok_or_else(|| err(line_no, format!("unknown class `{cls_name}`")))?;
        let m = *methods
            .get(&method_name)
            .ok_or_else(|| err(line_no, format!("unknown method `{method_name}`")))?;
        b.set_vtable(cls, VirtualSlot::new(slot), m);
    }
    let (line_no, entry_name) = entry.ok_or_else(|| err(0, "missing `entry` directive"))?;
    let entry_id = *methods
        .get(&entry_name)
        .ok_or_else(|| err(line_no, format!("unknown entry method `{entry_name}`")))?;
    b.set_entry(entry_id);
    Ok(b.build()?)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

fn assemble_body(
    b: &mut ProgramBuilder,
    src: &MethodSource,
    classes: &HashMap<String, ClassId>,
    methods: &HashMap<String, MethodId>,
) -> Result<(), AsmError> {
    // Pre-scan labels so jumps can reference them in any order.
    let mut failed: Option<AsmError> = None;
    b.define(src.id, src.extra_locals, |c| {
        let mut labels: HashMap<&str, Label> = HashMap::new();
        for (_, text) in &src.body {
            if let Some(name) = text.strip_suffix(':') {
                labels.entry(name.trim()).or_insert_with(|| c.label());
            }
        }
        for (line_no, text) in &src.body {
            let line_no = *line_no;
            if let Some(name) = text.strip_suffix(':') {
                let label = labels[name.trim()];
                c.bind(label);
                continue;
            }
            let t: Vec<&str> = text.split_whitespace().collect();
            let op = t[0];
            if let Some((n, extra)) = Op::text_operands(op).and_then(|n| Some((n, *t.get(n + 1)?)))
            {
                let s = if n == 1 { "" } else { "s" };
                failed.get_or_insert(err(
                    line_no,
                    format!("`{op}` takes {n} operand{s}, found extra `{extra}`"),
                ));
                return;
            }
            let arg = |i: usize| -> Result<&str, AsmError> {
                t.get(i)
                    .copied()
                    .ok_or_else(|| err(line_no, format!("`{op}` needs an operand")))
            };
            let label_of = |name: &str| -> Result<Label, AsmError> {
                labels
                    .get(name)
                    .copied()
                    .ok_or_else(|| err(line_no, format!("unknown label `{name}`")))
            };
            let class_of = |name: &str| -> Result<ClassId, AsmError> {
                classes
                    .get(name)
                    .copied()
                    .ok_or_else(|| err(line_no, format!("unknown class `{name}`")))
            };
            let result: Result<(), AsmError> = (|| {
                match op {
                    "jump" => {
                        c.jump(label_of(arg(1)?)?);
                    }
                    "jz" => {
                        c.jump_if_zero(label_of(arg(1)?)?);
                    }
                    "jnz" => {
                        c.jump_if_non_zero(label_of(arg(1)?)?);
                    }
                    "call" => {
                        let name = arg(1)?;
                        let m = *methods
                            .get(name)
                            .ok_or_else(|| err(line_no, format!("unknown method `{name}`")))?;
                        c.call(m);
                    }
                    "callvirt" => {
                        let slot: u16 = parse_num(arg(1)?, line_no)?;
                        let arity: u16 = parse_num(arg(2)?, line_no)?;
                        c.call_virtual(VirtualSlot::new(slot), arity);
                    }
                    "new" => {
                        c.new_object(class_of(arg(1)?)?);
                    }
                    "guard" => {
                        let cls = class_of(arg(1)?)?;
                        c.guard_class(cls, label_of(arg(2)?)?);
                    }
                    plain => match Op::parse_plain(plain, t.get(1).copied()) {
                        Some(parsed) => {
                            c.emit(parsed.map_err(|message| err(line_no, message))?);
                        }
                        None => return Err(err(line_no, format!("unknown instruction `{plain}`"))),
                    },
                }
                Ok(())
            })();
            if let Err(e) = result {
                failed.get_or_insert(e);
                return;
            }
        }
    })?;
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: &str = r#"
# A tiny polymorphic program.
class Shape fields=1
class Square extends=Shape fields=0

method Shape.area class=Shape params=1 locals=0 {
    load 0
    getfield 0
    ret
}

method Square.area class=Square params=1 locals=0 {
    load 0
    getfield 0
    dup
    mul
    ret
}

method main class=Shape params=0 locals=2 {
    new Square
    store 0
    load 0
    const 5
    putfield 0
    load 0
    callvirt 0 1
    ret
}

vtable Shape 0 Shape.area
vtable Square 0 Square.area
entry main
"#;

    #[test]
    fn assembles_and_runs_shapes() {
        let p = assemble(SHAPES).unwrap();
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.num_methods(), 3);
        assert_eq!(p.method_by_name("main").unwrap().id(), p.entry());
    }

    #[test]
    fn labels_and_loops() {
        let src = r#"
class C fields=0
method main class=C params=0 locals=2 {
    const 5
    store 0
head:
    load 0
    jz done
    load 1
    load 0
    add
    store 1
    load 0
    const 1
    sub
    store 0
    jump head
done:
    load 1
    ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        assert!(p.method_by_name("main").unwrap().has_loop());
    }

    #[test]
    fn forward_method_references_work() {
        let src = r#"
class C fields=0
method main class=C params=0 locals=0 {
    call later
    ret
}
method later class=C params=0 locals=0 {
    const 7
    ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        assert_eq!(p.num_methods(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("bogus directive\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bogus"));

        let src = "class C fields=0\nmethod m class=C params=0 locals=0 {\n  flub\n}\nentry m\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("flub"));

        let src = "class C fields=0\nmethod m class=C params=0 locals=0 {\n  jump nowhere\n  ret\n}\nentry m\n";
        let e = assemble(src).unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn trailing_operands_are_rejected() {
        for (body, extra) in [
            ("const 1 2", "2"),
            ("const 1\n  const 2\n  add 5", "5"),
            ("load 0 9", "9"),
            ("new C\n  callvirt 0 1 x", "x"),
            ("new C\n  guard C out extra\nout:\n  const 0", "extra"),
        ] {
            let src = format!(
                "class C fields=0\nmethod m class=C params=0 locals=1 {{\n  {body}\n  ret\n}}\nentry m\n"
            );
            let e = assemble(&src).unwrap_err();
            let line = 2 + body.lines().position(|l| l.contains(extra)).unwrap() + 1;
            assert_eq!(e.line, line, "{body}: {e}");
            assert!(
                e.message.contains(&format!("extra `{extra}`")),
                "{body}: {e}"
            );
        }
    }

    #[test]
    fn missing_entry_rejected() {
        let e = assemble("class C fields=0\n").unwrap_err();
        assert!(e.message.contains("entry"));
    }

    #[test]
    fn unknown_parent_rejected() {
        let e = assemble("class D fields=0 extends=Missing\n").unwrap_err();
        assert!(e.message.contains("Missing"));
    }

    #[test]
    fn unclosed_method_rejected() {
        let e = assemble("class C fields=0\nmethod m class=C params=0 locals=0 {\n  ret\n")
            .unwrap_err();
        assert!(e.message.contains('}'));
    }

    #[test]
    fn verifier_errors_surface() {
        // Body pops from an empty stack.
        let src = "class C fields=0\nmethod m class=C params=0 locals=0 {\n  pop\n  const 0\n  ret\n}\nentry m\n";
        let e = assemble(src).unwrap_err();
        assert!(e.message.contains("verification"), "{e}");
    }
}

/// Emits a program back into the textual assembly grammar accepted by
/// [`assemble`], enabling save/load of programs and round-trip testing.
///
/// Method and class *names* must not contain whitespace or `#` for the
/// round trip to succeed (builder- and generator-produced names never
/// do). Call-site identities are not part of the text format, so a
/// reassembled program is behaviorally identical but may number its call
/// sites differently.
pub fn disassemble(program: &Program) -> String {
    use std::collections::HashSet;
    use std::fmt::Write as _;

    let mut out = String::new();
    for class in program.classes() {
        let base_fields = class
            .super_class()
            .map(|p| program.class(p).num_fields())
            .unwrap_or(0);
        match class.super_class() {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "class {} fields={} extends={}",
                    class.name(),
                    class.num_fields() - base_fields,
                    program.class(p).name()
                );
            }
            None => {
                let _ = writeln!(out, "class {} fields={}", class.name(), class.num_fields());
            }
        }
    }
    out.push('\n');

    for method in program.methods() {
        let _ = writeln!(
            out,
            "method {} class={} params={} locals={} {{",
            method.name(),
            program.class(method.class()).name(),
            method.num_params(),
            method.num_locals() - method.num_params(),
        );
        // Label every jump target.
        let targets: HashSet<u32> = method.code().iter().filter_map(Op::jump_target).collect();
        for (pc, op) in method.code().iter().enumerate() {
            if targets.contains(&(pc as u32)) {
                let _ = writeln!(out, "L{pc}:");
            }
            let line = match *op {
                Op::Jump(t) => format!("jump L{t}"),
                Op::JumpIfZero(t) => format!("jz L{t}"),
                Op::JumpIfNonZero(t) => format!("jnz L{t}"),
                Op::Call { target, .. } => format!("call {}", program.method(target).name()),
                Op::CallVirtual { slot, arity, .. } => {
                    format!("callvirt {} {}", slot.index(), arity)
                }
                Op::New(c) => format!("new {}", program.class(c).name()),
                Op::GuardClass { class, not_taken } => {
                    format!("guard {} L{not_taken}", program.class(class).name())
                }
                plain => plain.to_string(),
            };
            let _ = writeln!(out, "    {line}");
        }
        out.push_str("}\n\n");
    }

    for class in program.classes() {
        for (slot, m) in class.vtable().iter().enumerate() {
            let _ = writeln!(
                out,
                "vtable {} {} {}",
                class.name(),
                slot,
                program.method(*m).name()
            );
        }
    }
    let _ = writeln!(out, "entry {}", program.method(program.entry()).name());
    out
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn builder_program_round_trips_through_text() {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 1);
        let f = b
            .function("Base.f", base, 1, 1, |c| {
                let done = c.label();
                c.load(0).get_field(0).store(1);
                c.load(1).jump_if_zero(done);
                c.load(1).const_(2).mul().store(1);
                c.bind(done).load(1).ret();
            })
            .unwrap();
        b.set_vtable(base, crate::ids::VirtualSlot::new(0), f);
        let sub = b.add_subclass("Sub", base, 1);
        let g = b
            .function("Sub.f", sub, 1, 0, |c| {
                c.load(0).get_field(1).ret();
            })
            .unwrap();
        b.set_vtable(sub, crate::ids::VirtualSlot::new(0), g);
        let main = b
            .function("main", base, 0, 1, |c| {
                c.new_object(sub).store(0);
                c.load(0).call_virtual(crate::ids::VirtualSlot::new(0), 1);
                c.ret();
            })
            .unwrap();
        b.set_entry(main);
        let original = b.build().unwrap();

        let text = disassemble(&original);
        let rebuilt = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));

        assert_eq!(rebuilt.num_classes(), original.num_classes());
        assert_eq!(rebuilt.num_methods(), original.num_methods());
        for (a, b) in original.methods().iter().zip(rebuilt.methods()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.num_params(), b.num_params());
            assert_eq!(a.num_locals(), b.num_locals());
            assert_eq!(a.len(), b.len(), "{}: {}", a.name(), disassemble(&rebuilt));
        }
        for (a, b) in original.classes().iter().zip(rebuilt.classes()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.num_fields(), b.num_fields());
            assert_eq!(a.vtable().len(), b.vtable().len());
        }
    }
}
