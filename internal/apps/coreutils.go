package apps

import (
	"pathlog/internal/lang"
	"pathlog/internal/world"
)

// The four coreutils of §5.2, each carrying a crash bug that manifests only
// under a specific argument combination — modeled on the real bugs that KLEE
// found and ESD/this paper reproduced. All four share ulib and realistic
// option-parsing structure, so their branch behavior matches Figure 1:
// a small set of branch locations executes with symbolic conditions, the
// rest are concrete.

// MkdirSource implements `mkdir [-p] [-v] [-m MODE] dir...`.
//
// Planted bug: the mode string is copied into a fixed 4-byte buffer without
// a length check; `mkdir -m 07777 d` overflows it (out-of-bounds write
// inside ulib's str_cpy, crashing in library code like the original report).
const MkdirSource = `
char modebuf[4];

int report(char *name, int verbose) {
	if (verbose) {
		print_str("mkdir: created directory ");
		print_str(name);
		print_char('\n');
	}
	return 0;
}

int main() {
	int parents = 0;
	int verbose = 0;
	int mode = 493; /* 0755 */
	int argi = 0;
	int n = argcount();
	char arg[104];
	int made = 0;

	while (argi < n) {
		int len = getarg(argi, arg, 104);
		if (len < 0) { break; }
		if (arg[0] == '-' && arg[1] != '\0') {
			if (str_eq(arg, "-p")) {
				parents = 1;
			} else if (str_eq(arg, "-v")) {
				verbose = 1;
			} else if (str_eq(arg, "-m")) {
				argi++;
				len = getarg(argi, arg, 104);
				if (len < 0) {
					print_str("mkdir: option requires an argument -- m\n");
					exit(1);
				}
				/* BUG: no length check before copying into modebuf[4]. */
				str_cpy(modebuf, arg);
				mode = parse_octal(modebuf);
				if (mode < 0) {
					print_str("mkdir: invalid mode\n");
					exit(1);
				}
			} else {
				print_str("mkdir: invalid option\n");
				exit(1);
			}
		} else {
			if (parents) {
				/* Create each path component. */
				int i = 0;
				while (arg[i] != '\0') {
					if (arg[i] == '/') { made++; }
					i++;
				}
			}
			report(arg, verbose);
			made++;
		}
		argi++;
	}
	if (made == 0) {
		print_str("mkdir: missing operand\n");
		exit(1);
	}
	print_int(mode);
	return 0;
}
`

// MknodSource implements `mknod NAME TYPE [MAJOR MINOR]`.
//
// Planted bug: for block/char devices the major number is parsed from an
// argument that may be missing; the resulting -1 indexes the device table
// (out-of-bounds write). `mknod foo b` crashes.
const MknodSource = `
int devtable[16];

int valid_type(int t) {
	if (t == 'b' || t == 'c' || t == 'u' || t == 'p') { return 1; }
	return 0;
}

int main() {
	char name[104];
	char typ[104];
	char majbuf[104];
	char minbuf[104];

	if (getarg(0, name, 104) < 0) {
		print_str("mknod: missing operand\n");
		exit(1);
	}
	if (getarg(1, typ, 104) < 0) {
		print_str("mknod: missing type\n");
		exit(1);
	}
	if (typ[1] != '\0' || !valid_type(typ[0])) {
		print_str("mknod: invalid device type\n");
		exit(1);
	}
	if (typ[0] == 'p') {
		print_str("mknod: created fifo ");
		print_str(name);
		print_char('\n');
		return 0;
	}
	/* Block or character device: needs major/minor. */
	getarg(2, majbuf, 104);
	getarg(3, minbuf, 104);
	int major = parse_int(majbuf);
	int minor = parse_int(minbuf);
	if (minor < 0) { minor = 0; }
	/* BUG: missing major argument leaves major == -1, which indexes the
	   device table out of bounds. */
	if (major >= 16) {
		print_str("mknod: major too large\n");
		exit(1);
	}
	devtable[major] = minor + 1;
	print_str("mknod: created device ");
	print_str(name);
	print_char('\n');
	return 0;
}
`

// MkfifoSource implements `mkfifo [-m MODE] NAME...`.
//
// Planted bug: an invalid octal mode parses to -1, and -1 % 8 stays -1 in C
// semantics, indexing the permission-bit histogram out of bounds.
// `mkfifo -m 9 f` crashes.
const MkfifoSource = `
int permbits[8];

int main() {
	int argi = 0;
	int n = argcount();
	char arg[104];
	int made = 0;
	int mode = 420; /* 0644 */

	while (argi < n) {
		int len = getarg(argi, arg, 104);
		if (len < 0) { break; }
		if (str_eq(arg, "-m")) {
			argi++;
			len = getarg(argi, arg, 104);
			if (len < 0) {
				print_str("mkfifo: option requires an argument -- m\n");
				exit(1);
			}
			mode = parse_octal(arg);
			/* BUG: no validation; -1 % 8 == -1 indexes out of bounds. */
			permbits[mode % 8]++;
		} else if (arg[0] == '-' && arg[1] != '\0') {
			print_str("mkfifo: invalid option\n");
			exit(1);
		} else {
			print_str("mkfifo: created fifo ");
			print_str(arg);
			print_char('\n');
			made++;
		}
		argi++;
	}
	if (made == 0) {
		print_str("mkfifo: missing operand\n");
		exit(1);
	}
	print_int(mode);
	return 0;
}
`

// PasteSource implements `paste [-s] [-d LIST] FILE`, reading the file from
// the simulated kernel and joining lines with the delimiter list.
//
// Planted bug (the historical coreutils one): a delimiter list consisting of
// a single backslash collapses to an empty list, and the per-column
// delimiter selection divides by the list length. `paste -d\ f` crashes with
// a division by zero at the modulo, the analogue of the original
// out-of-bounds delimiter pointer.
const PasteSource = `
char delims[8];
int delim_len = 0;

int collapse_escapes(char *list) {
	int i = 0;
	int o = 0;
	while (list[i] != '\0') {
		if (list[i] == '\\') {
			i++;
			if (list[i] == 'n') { delims[o] = '\n'; o++; }
			else if (list[i] == 't') { delims[o] = '\t'; o++; }
			else if (list[i] == '0') { delims[o] = '\0'; o++; }
			else if (list[i] == '\\') { delims[o] = '\\'; o++; }
			/* BUG source: a trailing backslash adds nothing and skips the
			   terminator check, leaving the list empty. */
			if (list[i] == '\0') { break; }
			i++;
		} else {
			if (o < 7) { delims[o] = list[i]; }
			o++;
			i++;
		}
	}
	if (o > 7) { o = 7; }
	delim_len = o;
	return o;
}

int main() {
	int serial = 0;
	int argi = 0;
	int n = argcount();
	char arg[104];
	char fname[104];
	int have_file = 0;

	delims[0] = '\t';
	delim_len = 1;

	while (argi < n) {
		int len = getarg(argi, arg, 104);
		if (len < 0) { break; }
		if (str_eq(arg, "-s")) {
			serial = 1;
		} else if (arg[0] == '-' && arg[1] == 'd') {
			if (arg[2] != '\0') {
				collapse_escapes(arg + 2);
			} else {
				argi++;
				len = getarg(argi, arg, 104);
				if (len < 0) {
					print_str("paste: option requires an argument -- d\n");
					exit(1);
				}
				collapse_escapes(arg);
			}
		} else if (arg[0] == '-' && arg[1] != '\0') {
			print_str("paste: invalid option\n");
			exit(1);
		} else {
			str_cpy(fname, arg);
			have_file = 1;
		}
		argi++;
	}
	if (!have_file) {
		print_str("paste: missing file operand\n");
		exit(1);
	}

	int fd = open(fname);
	if (fd < 0) {
		print_str("paste: cannot open file\n");
		exit(1);
	}
	char buf[256];
	int got = read(fd, buf, 255);
	if (got < 0) { got = 0; }
	buf[got] = '\0';
	close(fd);

	/* Join lines using the delimiter list, cycling through it. */
	int col = 0;
	int i;
	for (i = 0; i < got; i++) {
		if (buf[i] == '\n') {
			if (!serial) {
				/* BUG: delim_len can be zero after a lone backslash. */
				int d = delims[col % delim_len];
				if (d != '\0') { print_char(d); }
				col++;
			} else {
				print_char('\n');
			}
		} else {
			print_char(buf[i]);
		}
	}
	print_char('\n');
	return 0;
}
`

// Coreutil bundles one program with its bug-triggering invocation.
type Coreutil struct {
	Name    string
	Prog    *lang.Program
	Spec    *world.Spec
	UserArg map[string][]byte
}

// Coreutils returns the four §5.2 programs with their bug scenarios, in
// CoreutilNames order. The neutral spec mirrors the paper's setup — several
// arguments of up to 100 bytes each (scaled by maxArgLen for tractable
// tests).
func Coreutils(maxArgLen int) []Coreutil {
	names := CoreutilNames()
	out := make([]Coreutil, len(names))
	for i, name := range names {
		out[i], _ = coreutil(name, maxArgLen)
	}
	return out
}

// coreutil builds the named §5.2 program with its bug scenario, parsing and
// linking only that program; false if no coreutil has the name.
func coreutil(name string, maxArgLen int) (Coreutil, bool) {
	if maxArgLen <= 0 {
		maxArgLen = 16
	}
	spec := func(nArgs int, files ...world.FileInput) *world.Spec {
		s := &world.Spec{}
		for i := 0; i < nArgs; i++ {
			s.Args = append(s.Args, world.ArgSpec(i, "zz", maxArgLen))
		}
		s.Files = files
		// File names are symbolic input; use the KLEE-style FS model so
		// open() can succeed during analysis and replay.
		s.SymbolicFS = len(files) > 0
		return s
	}
	switch name {
	case "mkdir":
		return Coreutil{
			Name: "mkdir",
			Prog: mustProgram("mkdir.mc", MkdirSource),
			Spec: spec(3),
			UserArg: map[string][]byte{
				"arg0": []byte("-m"),
				"arg1": []byte("07777"),
				"arg2": []byte("d"),
			},
		}, true
	case "mknod":
		return Coreutil{
			Name: "mknod",
			Prog: mustProgram("mknod.mc", MknodSource),
			Spec: spec(2),
			UserArg: map[string][]byte{
				"arg0": []byte("foo"),
				"arg1": []byte("b"),
			},
		}, true
	case "mkfifo":
		return Coreutil{
			Name: "mkfifo",
			Prog: mustProgram("mkfifo.mc", MkfifoSource),
			Spec: spec(3),
			UserArg: map[string][]byte{
				"arg0": []byte("-m"),
				"arg1": []byte("9"),
				"arg2": []byte("f"),
			},
		}, true
	case "paste":
		return Coreutil{
			Name: "paste",
			Prog: mustProgram("paste.mc", PasteSource),
			Spec: spec(2, world.FileSpec("data.txt", "a\nb\nc\n", 12)),
			UserArg: map[string][]byte{
				"arg0": []byte("-d\\"),
				"arg1": []byte("data.txt"),
			},
		}, true
	}
	return Coreutil{}, false
}
